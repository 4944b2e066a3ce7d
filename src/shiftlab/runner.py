"""Configuration-driven experiment runner with CSV/JSON reporting.

A run configuration is a single YAML (or JSON) file describing the ambient
dimension, the scale parameter, the ideal, and a list of experiments.  Each
experiment is executed independently; one failure is recorded and does not
abort the rest.  Given the same configuration and seed, outputs are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .boundary import (
    OptimizerConfig,
    boundary_sup,
    character_check,
)
from .grading import (
    GradedComplementBasis,
    HilbertFunction,
    HomogeneousIdeal,
)
from .operators import (
    ShiftBlocks,
    default_window_schedule,
    operator_norm,
    schatten_partial_sums,
)
from .polynomials import Polynomial, WeightScheme

__all__ = [
    "RunConfig",
    "ExperimentReport",
    "ConfigError",
    "load_config",
    "run",
    "compare",
]

SCHEMA_VERSION = 1

KNOWN_KINDS = {"essnorm", "commutator", "besov", "character", "aastar", "dims"}
OPTIMIZER_KEYS = {f.name for f in fields(OptimizerConfig)}
# a dims experiment warns about a rank decision this close to its threshold
RANK_MARGIN_WARNING = 1e3


class ConfigError(ValueError):
    pass


def _parse_polynomial(records, d: int, what: str) -> Polynomial:
    coeffs = {}
    try:
        for rec in records:
            alpha, re, im = rec
            alpha = tuple(int(a) for a in alpha)
            coeffs[alpha] = coeffs.get(alpha, 0) + complex(float(re), float(im))
        return Polynomial(d, coeffs)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad polynomial records for {what}: {exc}") from exc


def _poly_records(p: Polynomial):
    return [
        [list(alpha), c.real, c.imag]
        for alpha, c in sorted(p.coeffs.items())
    ]


def _parse_point(records, d: int) -> np.ndarray:
    try:
        pt = np.array([complex(float(re), float(im)) for re, im in records])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad point records: {exc}") from exc
    if len(pt) != d:
        raise ConfigError(f"point has {len(pt)} coordinates, expected {d}")
    return pt


@dataclass
class ExperimentSpec:
    id: str
    kind: str
    params: dict


@dataclass
class RunConfig:
    d: int
    sigma: float
    n_max: int
    ideal: HomogeneousIdeal
    experiments: list[ExperimentSpec]
    seed: int = 0
    rank_tol: float = 1e-10
    workers: int = 1
    warnings: list[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be a mapping")
        version = raw.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        try:
            d = int(raw["d"])
            sigma = float(raw.get("sigma", 0.5))
            n_max = int(raw["n_max"])
        except KeyError as exc:
            raise ConfigError(f"missing required key {exc}") from exc
        if d < 2:
            raise ConfigError("d must be at least 2")
        if n_max < 0:
            raise ConfigError("n_max must be nonnegative")
        warnings_list = []
        if sigma < 0.5:
            warnings_list.append(
                f"sigma={sigma} below 1/2: outside the main-scale guarantees"
            )
        gens = []
        for k, rec in enumerate((raw.get("ideal") or {}).get("generators", [])):
            gens.append(_parse_polynomial(rec, d, f"generator #{k}"))
        try:
            ideal = HomogeneousIdeal.from_generators(gens, d)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        experiments = []
        seen = set()
        for k, e in enumerate(raw.get("experiments", []) or []):
            if not isinstance(e, dict) or "kind" not in e:
                raise ConfigError(f"experiment #{k} missing 'kind'")
            kind = e["kind"]
            if kind not in KNOWN_KINDS:
                raise ConfigError(
                    f"unknown experiment kind {kind!r}; known: {sorted(KNOWN_KINDS)}"
                )
            eid = str(e.get("id", f"{kind}-{k}"))
            if eid in seen:
                raise ConfigError(f"duplicate experiment id {eid!r}")
            seen.add(eid)
            params = {x: y for x, y in e.items() if x not in ("id", "kind")}
            opt = params.get("optimizer") or {}
            if not isinstance(opt, dict):
                raise ConfigError(f"experiment {eid}: 'optimizer' must be a mapping")
            unknown = sorted(set(opt) - OPTIMIZER_KEYS)
            if unknown:
                raise ConfigError(
                    f"experiment {eid}: unknown optimizer keys {unknown}; "
                    f"known: {sorted(OPTIMIZER_KEYS)}"
                )
            experiments.append(ExperimentSpec(eid, kind, params))

        cfg = cls(
            d=d,
            sigma=sigma,
            n_max=n_max,
            ideal=ideal,
            experiments=experiments,
            seed=int(raw.get("seed", 0)),
            rank_tol=float(raw.get("rank_tol", 1e-10)),
            workers=int(raw.get("workers", 1)),
            warnings=warnings_list,
        )
        cfg._validate_degrees()
        return cfg

    def _validate_degrees(self):
        for e in self.experiments:
            n_max = int(e.params.get("n_max", self.n_max))
            for m, M in e.params.get("windows", []) or []:
                if not (0 <= int(m) <= int(M) <= n_max):
                    raise ConfigError(
                        f"experiment {e.id}: window ({m},{M}) outside 0..{n_max}"
                    )
            degs = e.params.get("degrees")
            if degs and int(degs[1]) > n_max:
                raise ConfigError(
                    f"experiment {e.id}: degree range top {degs[1]} exceeds "
                    f"n_max={n_max}; raise n_max"
                )


def load_config(path) -> RunConfig:
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return RunConfig.from_dict(raw)


@dataclass
class ExperimentReport:
    id: str
    kind: str
    status: str  # "ok" or "failed"
    headline: dict
    series: dict  # name -> list of rows (each row a list)
    inputs: dict
    wall_time: float
    warnings: list[str] = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "headline": self.headline,
            "series": self.series,
            "inputs": self.inputs,
            "wall_time_s": round(self.wall_time, 3),
            "warnings": self.warnings,
            "error": self.error,
        }


def compare(estimate: float, boundary_value: float, tolerance: float) -> dict:
    """Verdict on essential-norm estimate vs boundary sup at a relative tolerance."""
    scale = max(abs(estimate), abs(boundary_value), 1e-30)
    gap = estimate - boundary_value
    if abs(gap) <= tolerance * scale:
        verdict = "match"
        advice = None
    elif gap > 0:
        verdict = "lower-bound-only-satisfied"
        advice = (
            "finite-window estimate sits above the boundary sup; extend the "
            "window schedule (larger m) to tighten the tail limit"
        )
    else:
        verdict = "violation"
        advice = "boundary sup exceeds the tail estimate; inspect the raw grid"
    out = {
        "verdict": verdict,
        "estimate": estimate,
        "boundary_sup": boundary_value,
        "gap": gap,
        "relative_gap": gap / scale,
        "tolerance": tolerance,
    }
    if advice:
        out["advice"] = advice
    return out


class _CacheSet:
    """Blocks cache shared across experiments, keyed by (sigma, n_max)."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._lock = threading.Lock()
        self._blocks: dict[tuple[float, int], ShiftBlocks] = {}

    def blocks(self, sigma: float, n_max: int) -> ShiftBlocks:
        key = (float(sigma), int(n_max))
        with self._lock:
            blk = self._blocks.get(key)
            if blk is None:
                basis = GradedComplementBasis(
                    self.cfg.ideal,
                    WeightScheme(sigma, self.cfg.d),
                    n_max,
                    self.cfg.rank_tol,
                )
                blk = ShiftBlocks(basis)
                self._blocks[key] = blk
            return blk


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header: list[str], rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


# ---------------------------------------------------------------------------
# experiment executors


def _run_essnorm(cfg, spec, caches, out_dir: Path) -> ExperimentReport:
    t0 = time.perf_counter()
    sigma = float(spec.params.get("sigma", cfg.sigma))
    n_max = int(spec.params.get("n_max", cfg.n_max))
    p = _parse_polynomial(spec.params["polynomial"], cfg.d, f"{spec.id}.polynomial")
    windows = spec.params.get("windows")
    if windows:
        schedule = [(int(m), int(M)) for m, M in windows]
    else:
        schedule = default_window_schedule(p.degree, n_max)
    blocks = caches.blocks(sigma, n_max)
    trace = blocks.essential_norm_estimate(p, schedule)

    opt_over = dict(spec.params.get("optimizer", {}))
    opt_over.setdefault("seed", int(spec.params.get("seed", cfg.seed)))
    opt = OptimizerConfig(**opt_over)
    bres = boundary_sup(p, cfg.ideal, opt)

    tol = float(spec.params.get("compare_tolerance", 0.01))
    verdict = compare(trace.estimate, bres.value, tol)

    grid_rows = [[m, M, f] for m, M, f in trace.rows()]
    _write_csv(out_dir / f"{spec.id}_grid.csv", ["m", "M", "f"], grid_rows)
    warn = []
    if trace.monotonicity_violations:
        warn.append(
            f"{len(trace.monotonicity_violations)} monotonicity violations in grid"
        )
    return ExperimentReport(
        id=spec.id,
        kind=spec.kind,
        status="ok",
        headline={
            "estimate": trace.estimate,
            "estimate_window": list(trace.estimate_window),
            "extrapolated_estimate": trace.extrapolated,
            "boundary_sup": bres.value,
            "boundary_point": [[z.real, z.imag] for z in bres.point],
            "sphere_residual": bres.sphere_residual,
            "ideal_residual": bres.ideal_residual,
            "basins": bres.n_basins,
            "n_stationary": bres.n_stationary,
            "worst_feasibility_residual": bres.worst_feasibility_residual,
            "comparison": verdict,
        },
        series={"grid": grid_rows},
        inputs={
            "polynomial": _poly_records(p),
            "sigma": sigma,
            "windows": [list(w) for w in schedule],
        },
        wall_time=time.perf_counter() - t0,
        warnings=warn,
    )


def _run_commutator(cfg, spec, caches, out_dir: Path) -> ExperimentReport:
    t0 = time.perf_counter()
    sigma = float(spec.params.get("sigma", cfg.sigma))
    n_max = int(spec.params.get("n_max", cfg.n_max))
    lo, hi = (int(x) for x in spec.params.get("degrees", [0, n_max - 1]))
    if hi >= n_max:
        raise ConfigError(
            f"experiment {spec.id}: degree top {hi} needs blocks at {hi + 1}; "
            f"raise n_max above {n_max}"
        )
    pairs = [tuple(int(x) for x in pr) for pr in spec.params.get("pairs", [[1, 1]])]
    exponents = [float(p) for p in spec.params.get("schatten_exponents", [1.0, 2.0])]
    blocks = caches.blocks(sigma, n_max)

    norm_rows = []
    schatten_rows = []
    headline = {}
    for (i, j) in pairs:
        spec_ij = blocks.commutator_blocks(i, j, range(lo, hi + 1))
        for n in spec_ij.degrees:
            norm_rows.append([n, i, j, spec_ij.block_norm(n)])
        sums = schatten_partial_sums(spec_ij, exponents)
        for p_exp in exponents:
            for n, s, inc in zip(
                sums.degrees, sums.partial_sums[p_exp], sums.increments[p_exp]
            ):
                schatten_rows.append([i, j, p_exp, n, s, inc])
        headline[f"({i},{j})"] = {
            "max_block_norm": float(spec_ij.block_norms().max()),
            "increment_slopes": {
                str(p_exp): sums.increment_slopes[p_exp] for p_exp in exponents
            },
        }
    _write_csv(
        out_dir / f"{spec.id}_blocks.csv",
        ["n", "i", "j", "top_singular_value"],
        norm_rows,
    )
    _write_csv(
        out_dir / f"{spec.id}_schatten.csv",
        ["i", "j", "p", "N", "partial_sum", "increment"],
        schatten_rows,
    )
    return ExperimentReport(
        id=spec.id,
        kind=spec.kind,
        status="ok",
        headline=headline,
        series={"block_norms": norm_rows, "schatten": schatten_rows},
        inputs={"pairs": [list(p) for p in pairs], "degrees": [lo, hi],
                "schatten_exponents": exponents, "sigma": sigma},
        wall_time=time.perf_counter() - t0,
        warnings=["slope verdicts are finite-truncation heuristics"],
    )


def _run_besov(cfg, spec, caches, out_dir: Path) -> ExperimentReport:
    t0 = time.perf_counter()
    sigma = float(spec.params.get("sigma", cfg.sigma))
    n_max = int(spec.params.get("n_max", cfg.n_max))
    lo, hi = (int(x) for x in spec.params.get("degrees", [0, n_max - 1]))
    if hi >= n_max:
        raise ConfigError(f"experiment {spec.id}: need n_max > {hi}")
    blocks = caches.blocks(sigma, n_max)
    rows = []
    max_row_dev = 0.0
    max_col_dev = 0.0
    for n in range(lo, hi + 1):
        R = blocks.row_defect_block(n)
        C = blocks.column_defect_block(n)
        row_pred = 1.0 if n == 0 else (2 * sigma - 1) / (n + 2 * sigma - 1)
        col_pred = 1.0 - (n + cfg.d) / (n + 2 * sigma)
        dim = R.shape[0]
        r_dev = float(np.abs(R - row_pred * np.eye(dim)).max()) if dim else 0.0
        c_dev = float(np.abs(C - col_pred * np.eye(dim)).max()) if dim else 0.0
        rows.append([n, row_pred, r_dev, col_pred, c_dev])
        max_row_dev = max(max_row_dev, r_dev)
        max_col_dev = max(max_col_dev, c_dev)
    _write_csv(
        out_dir / f"{spec.id}_defects.csv",
        ["n", "row_defect_scalar", "row_deviation", "col_defect_scalar",
         "col_deviation"],
        rows,
    )
    # H is co-invariant, so sum_i S_i S_i* is the same scalar on every
    # complement as on the whole space; the column defect is not
    headline = {"degrees": [lo, hi], "max_row_defect_deviation": max_row_dev}
    if cfg.ideal.is_trivial:
        headline["max_column_defect_deviation"] = max_col_dev
    else:
        headline["note"] = "the column prediction applies to the zero ideal only"
    return ExperimentReport(
        id=spec.id, kind=spec.kind, status="ok", headline=headline,
        series={"defects": rows},
        inputs={"sigma": sigma, "degrees": [lo, hi]},
        wall_time=time.perf_counter() - t0,
    )


def _run_character(cfg, spec, caches, out_dir: Path) -> ExperimentReport:
    t0 = time.perf_counter()
    sigma = float(spec.params.get("sigma", cfg.sigma))
    p = _parse_polynomial(spec.params["polynomial"], cfg.d, f"{spec.id}.polynomial")
    lam = _parse_point(spec.params["point"], cfg.d)
    N = int(spec.params.get("truncation_degree", cfg.n_max - max(1, p.degree)))
    n_max = max(int(spec.params.get("n_max", cfg.n_max)), N + p.degree)
    blocks = caches.blocks(sigma, n_max)
    res = character_check(p, lam, blocks, N)
    kv = res.kernel
    rows = [[
        res.vector_state_value.real, res.vector_state_value.imag,
        res.point_value.real, res.point_value.imag,
        res.discrepancy, res.operator_norm, res.projection_residual,
        kv.normalization, kv.norm_sq_truncated, kv.tail_bound,
    ]]
    _write_csv(
        out_dir / f"{spec.id}_character.csv",
        ["state_re", "state_im", "eval_re", "eval_im", "discrepancy",
         "operator_norm", "projection_residual", "C_lambda",
         "norm_sq_truncated", "tail_bound"],
        rows,
    )
    return ExperimentReport(
        id=spec.id, kind=spec.kind, status="ok",
        headline={
            "discrepancy": res.discrepancy,
            "operator_norm": res.operator_norm,
            "point_value_abs": abs(res.point_value),
            "lower_bound_holds": res.lower_bound_slack >= -1e-12,
        },
        series={"character": rows},
        inputs={
            "polynomial": _poly_records(p),
            "point": [[z.real, z.imag] for z in lam],
            "sigma": sigma,
            "truncation_degree": N,
        },
        wall_time=time.perf_counter() - t0,
        warnings=res.warnings,
    )


def _run_aastar(cfg, spec, caches, out_dir: Path) -> ExperimentReport:
    t0 = time.perf_counter()
    sigma = float(spec.params.get("sigma", cfg.sigma))
    i = int(spec.params.get("i", 1))
    j = int(spec.params.get("j", 1))
    ks = [int(k) for k in spec.params.get("dictionary_degrees", [1, 2])]
    M = int(spec.params.get("window_top", cfg.n_max))
    n_max = max(int(spec.params.get("n_max", cfg.n_max)), M)
    blocks = caches.blocks(sigma, n_max)
    rows = []
    warn = []
    for k in sorted(ks):
        r = blocks.aa_star_residual(i, j, k, M)
        rows.append([k, M, r.residual, r.dictionary_size, r.dictionary_rank])
        if r.dictionary_rank < r.dictionary_size:
            warn.append(
                f"k={k}: rank-deficient dictionary (rank {r.dictionary_rank} of "
                f"{r.dictionary_size}); minimum-norm solution used"
            )
    _write_csv(
        out_dir / f"{spec.id}_residuals.csv",
        ["k", "M", "residual", "dictionary_size", "dictionary_rank"],
        rows,
    )
    return ExperimentReport(
        id=spec.id, kind=spec.kind, status="ok",
        headline={"residuals": {str(row[0]): row[2] for row in rows}},
        series={"residuals": rows},
        inputs={"i": i, "j": j, "dictionary_degrees": sorted(ks),
                "window_top": M, "sigma": sigma},
        wall_time=time.perf_counter() - t0,
        warnings=warn,
    )


def _run_dims(cfg, spec, caches, out_dir: Path) -> ExperimentReport:
    t0 = time.perf_counter()
    n_max = int(spec.params.get("n_max", cfg.n_max))
    # dims do not depend on sigma: read them, as hilbert_function does, off
    # the sigma = 1/2 basis, here the one the other experiments share
    hf = HilbertFunction.from_basis(caches.blocks(0.5, n_max).basis)
    rows = [[n, t, di, dh, margin]
            for (n, t, di, dh), margin in zip(hf.rows(), hf.rank_margins)]
    _write_csv(
        out_dir / f"{spec.id}_dims.csv",
        ["n", "dim_total", "dim_ideal", "dim_complement", "rank_margin"],
        rows,
    )
    warn = [
        f"degree {n}: rank decision within a factor {margin:.3g} of the "
        f"threshold rank_tol * |R_00|"
        for n, margin in enumerate(hf.rank_margins)
        if margin is not None and margin < RANK_MARGIN_WARNING
    ]
    if hf.finite_codimension_suspected:
        warn.append(
            "complement dimensions vanish at high degree: the ideal looks "
            "finite-co-dimensional, outside the scope of these experiments"
        )
    return ExperimentReport(
        id=spec.id, kind=spec.kind, status="ok",
        headline={"dims_complement": hf.dims_complement,
                  "finite_codimension_suspected": hf.finite_codimension_suspected,
                  "min_rank_margin": min(
                      (m for m in hf.rank_margins if m is not None), default=None)},
        series={"dims": rows},
        inputs={"n_max": n_max},
        wall_time=time.perf_counter() - t0,
        warnings=warn,
    )


_EXECUTORS = {
    "essnorm": _run_essnorm,
    "commutator": _run_commutator,
    "besov": _run_besov,
    "character": _run_character,
    "aastar": _run_aastar,
    "dims": _run_dims,
}


def _run_one(cfg, spec, caches, out_dir) -> ExperimentReport:
    t0 = time.perf_counter()
    try:
        return _EXECUTORS[spec.kind](cfg, spec, caches, out_dir)
    except Exception as exc:  # isolate per-experiment failures
        return ExperimentReport(
            id=spec.id, kind=spec.kind, status="failed",
            headline={}, series={}, inputs=dict(spec.params),
            wall_time=time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=5)}",
        )


def run(
    cfg: RunConfig,
    out_dir,
    workers: int | None = None,
    seed_override: int | None = None,
) -> list[ExperimentReport]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if seed_override is not None:
        cfg = replace(cfg, seed=int(seed_override))
    workers = workers or cfg.workers or 1
    caches = _CacheSet(cfg)

    if workers > 1 and len(cfg.experiments) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(
                pool.map(lambda s: _run_one(cfg, s, caches, out_dir), cfg.experiments)
            )
    else:
        reports = [_run_one(cfg, s, caches, out_dir) for s in cfg.experiments]

    report_doc = {
        "schema_version": SCHEMA_VERSION,
        "d": cfg.d,
        "sigma": cfg.sigma,
        "n_max": cfg.n_max,
        "seed": cfg.seed,
        "ideal_generators": [_poly_records(g) for g in cfg.ideal.generators],
        "config_warnings": cfg.warnings,
        "experiments": [r.to_dict() for r in reports],
    }
    (out_dir / "report.json").write_text(
        json.dumps(report_doc, indent=2, sort_keys=True, default=_json_default) + "\n"
    )
    (out_dir / "summary.txt").write_text(_summary_text(cfg, reports))
    return reports


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _summary_text(cfg: RunConfig, reports) -> str:
    lines = [
        f"d={cfg.d} sigma={_fmt(cfg.sigma)} n_max={cfg.n_max} seed={cfg.seed} "
        f"generators={len(cfg.ideal.generators)}",
    ]
    for w in cfg.warnings:
        lines.append(f"config warning: {w}")
    for r in reports:
        if r.status != "ok":
            lines.append(f"[{r.id}] {r.kind}: FAILED ({r.error.splitlines()[0]})")
            continue
        bits = []
        for key, val in r.headline.items():
            if isinstance(val, float):
                bits.append(f"{key}={_fmt(val)}")
            elif isinstance(val, (int, bool, str)):
                bits.append(f"{key}={val}")
        lines.append(
            f"[{r.id}] {r.kind}: ok ({r.wall_time:.2f}s) " + " ".join(bits)
        )
        for w in r.warnings:
            lines.append(f"  warning: {w}")
    return "\n".join(lines) + "\n"
