"""The benchmark workloads, as run inside one pass process.

Each workload has ``setup(seed, work_dir, root) -> state`` (building inputs;
part of ``setup_s``), ``run(state) -> raw`` (the timed work; each step records
its exception instead of raising) and ``extract(state, raw) -> {op: outputs}``
(untimed; turns results into flat dicts of plain numbers for ``checks.py``).

Library functions are looked up on the ``shiftlab`` modules at call time, so
the wrappers of a traced pass see every call.  The workloads call only entry
points the ROADMAP keeps (``cli.main``, basis and block construction, the
defect, commutator, window-norm and AA* methods, ``boundary_sup`` and
``kernel_vector``); ``assemble_polynomial``, ``BandedTruncation``,
``grading_leakage``, ``commutator_cross_leakage`` and ``generator_residual``
are never called directly.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np

import shiftlab as sl
import shiftlab.cli

from checks import SIGMAS, Z1Z2_WINDOWS


def _step(raw: dict, op: str, fn):
    try:
        raw[op] = fn()
    except Exception as exc:  # one failed op must not hide the others
        raw[op] = exc


def _free_blocks(d, sigma, n_max):
    return sl.ShiftBlocks(
        sl.GradedComplementBasis(sl.HomogeneousIdeal.zero(d), sl.WeightScheme(sigma, d), n_max)
    )


def _trace_outputs(trace) -> dict:
    out = {f"f.{m}.{M}": float(f) for m, M, f in trace.rows()}
    out["monotonicity_violations"] = len(trace.monotonicity_violations)
    if trace.extrapolated is not None:
        out["extrapolated"] = float(trace.extrapolated)
    return out


def _flatten(obj, prefix: str, out: dict) -> dict:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}{k}.", out)
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            _flatten(v, f"{prefix}{k}.", out)
    else:
        out[prefix[:-1]] = obj
    return out


# -- `shiftlab run configs/demo.yaml`, end to end (a step of boundary-d3)


def _demo_setup(seed, work_dir: Path, root: Path):
    config = root / "configs" / "demo.yaml"
    shiftlab.cli.load_config(config)  # the config must parse before timing
    return {"config": config, "seed": seed, "out": work_dir / "demo-out"}


def _demo_run(st):
    argv = ["run", str(st["config"]), "--out", str(st["out"]),
            "--seed-override", str(st["seed"])]
    return shiftlab.cli.main(argv)


def _demo_extract(st, code) -> dict:
    """Ops ``demo.run`` (exit code, report fields, artifact digest) and one
    ``demo.<id>`` per experiment."""
    if isinstance(code, Exception):
        return {"demo.run": code}
    out_dir = st["out"]
    try:
        text = (out_dir / "report.json").read_text()
        # timings are not results: drop them before comparing bytes
        digest = hashlib.sha256(
            re.sub(r'^\s*"wall_time_s": .*\n', "", text, flags=re.M).encode()
        )
        for csv in sorted(out_dir.glob("*.csv")):
            digest.update(csv.name.encode() + b"\0" + csv.read_bytes())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    doc = json.loads(text)
    experiments = doc.pop("experiments")
    ops = {"demo.run": dict(_flatten(doc, "", {}), exit_code=code,
                            digest=digest.hexdigest())}
    for e in experiments:
        flat = {"status": e["status"]}
        for part in ("headline", "series", "inputs"):
            _flatten(e[part], part + ".", flat)
        ops["demo." + e["id"]] = flat
    return ops


# -- tier1: the criterion 2, 4 and 8 kernels of tests/test_acceptance.py


def _defects(d, sigma):
    blocks = _free_blocks(d, sigma, 31)
    row = col = 0.0
    for n in range(31):
        dim = blocks.basis.dim_complement(n)
        row_pred = 1.0 if n == 0 else (2 * sigma - 1) / (n + 2 * sigma - 1)
        col_pred = 1.0 - (n + d) / (n + 2 * sigma)
        R = blocks.row_defect_block(n)
        C = blocks.column_defect_block(n)
        row = max(row, float(np.abs(R - row_pred * np.eye(dim)).max()))
        col = max(col, float(np.abs(C - col_pred * np.eye(dim)).max()))
    return {"row_dev": row, "col_dev": col}


class Tier1:
    def setup(self, seed, work_dir, root):
        return {"z1z2": sl.Polynomial.monomial((1, 1))}

    def run(self, st):
        raw = {}
        for d in (2, 3):
            for sigma in SIGMAS:
                _step(raw, f"defects-d{d}-s{sigma:g}",
                      lambda d=d, sigma=sigma: _defects(d, sigma))
        _step(raw, "windows-z1z2", lambda: _free_blocks(2, 0.5, 122)
              .essential_norm_estimate(st["z1z2"], list(Z1Z2_WINDOWS)))
        aa = {}
        for k in (1, 2, 3):
            def residual(k=k):
                if "blocks" not in aa:
                    aa["blocks"] = _free_blocks(2, 0.5, 32)
                return aa["blocks"].aa_star_residual(1, 2, k, 30)
            _step(raw, f"aastar-k{k}", residual)
        return raw

    def extract(self, st, raw):
        ops = {}
        for op, res in raw.items():
            if isinstance(res, Exception) or op.startswith("defects-"):
                ops[op] = res
            elif op == "windows-z1z2":
                ops[op] = _trace_outputs(res)
            else:
                ops[op] = {"residual": float(res.residual)}
        return ops


# -- graded-d3: quadric ideal, d=3, sigma=1, n_max=40


class GradedD3:
    N_MAX = 40

    def setup(self, seed, work_dir, root):
        w1, w2, w3 = (sl.Polynomial.variable(3, i) for i in (1, 2, 3))
        return {
            "ideal": sl.HomogeneousIdeal.from_generators([w1**2 + w2**2 + w3**2], 3),
            "weights": sl.WeightScheme(1.0, 3),
            "inhomogeneous": 0.5 + w1 + w2 * w3,
            "matrix": sl.MatrixPolynomial([[w1, w2], [w3, w1 * w2]]),
        }

    def run(self, st):
        raw = {}
        n = self.N_MAX

        def basis():
            st["blocks"] = sl.ShiftBlocks(
                sl.GradedComplementBasis(st["ideal"], st["weights"], n))
            return st["blocks"]

        def shifts():
            b = st["blocks"]
            return [[b.shift_block(i, k) for k in range(n)] for i in (1, 2, 3)]

        def defects():
            b = st["blocks"]
            blocks = [(b.row_defect_block(k), b.column_defect_block(k)) for k in range(1, n)]
            return blocks, b.row_contraction_excess(range(1, n))

        def commutators():
            b = st["blocks"]
            return [b.commutator_blocks(1, j, range(1, n)) for j in (1, 2)]

        _step(raw, "basis", basis)
        _step(raw, "shift-blocks", shifts)
        _step(raw, "defects", defects)
        _step(raw, "commutators", commutators)
        _step(raw, "essnorm-inhomogeneous", lambda: st["blocks"].essential_norm_estimate(
            st["inhomogeneous"], [(10, 30), (20, 40)]))
        _step(raw, "essnorm-matrix", lambda: st["blocks"].essential_norm_estimate(
            st["matrix"], [(20, 40)]))
        return raw

    def extract(self, st, raw):
        # every output is invariant under a unitary change of the H_n bases
        ops = {}
        for op, res in raw.items():
            if isinstance(res, Exception):
                ops[op] = res
            elif op == "basis":
                ops[op] = {f"dim.{k}": int(res.basis.dim_complement(k))
                           for k in range(self.N_MAX + 1)}
            elif op == "shift-blocks":
                ops[op] = {f"fro.{i + 1}.{k}": float(np.linalg.norm(B))
                           for i, row in enumerate(res) for k, B in enumerate(row)}
            elif op == "defects":
                blocks, excess = res
                out = {"row_contraction_excess": float(excess)}
                for k, (R, C) in enumerate(blocks, start=1):
                    out[f"row_trace.{k}"] = float(np.trace(R).real)
                    out[f"col_trace.{k}"] = float(np.trace(C).real)
                    out[f"row_fro.{k}"] = float(np.linalg.norm(R))
                    out[f"col_fro.{k}"] = float(np.linalg.norm(C))
                ops[op] = out
            elif op == "commutators":
                out = {}
                for spec in res:
                    for k in spec.degrees:
                        s = spec.singular_values[k]
                        out[f"norm.{spec.i}{spec.j}.{k}"] = spec.block_norm(k)
                        out[f"trace_norm.{spec.i}{spec.j}.{k}"] = float(np.sum(s))
                ops[op] = out
            else:
                ops[op] = _trace_outputs(res)
        return ops


# -- boundary-d3: the demo run, then the boundary optimizer and the kernel
# series in d=3


class BoundaryD3:
    def setup(self, seed, work_dir, root):
        w1, w2, w3 = (sl.Polynomial.variable(3, i) for i in (1, 2, 3))
        cfg = sl.OptimizerConfig(n_starts=8, seed=seed)
        return {
            "demo": _demo_setup(seed, work_dir, root),
            "sups": [
                ("sup-w1w2-quadric", w1 * w2,
                 sl.HomogeneousIdeal.from_generators([w1**2 + w2**2 + w3**2], 3), cfg),
                ("sup-sum-normal-crossing", w1 + w2 + w3,
                 sl.HomogeneousIdeal.from_generators([w1 * w2 * w3], 3), cfg),
            ],
            "kernels": [("kernel-s0.5", 0.5), ("kernel-s1", 1.0)],
        }

    def run(self, st):
        raw = {}
        # first, so the CLI run meets empty module caches as a CLI user does
        _step(raw, "demo", lambda: _demo_run(st["demo"]))
        for op, p, ideal, cfg in st["sups"]:
            _step(raw, op, lambda p=p, ideal=ideal, cfg=cfg: sl.boundary_sup(p, ideal, cfg))
        for op, sigma in st["kernels"]:
            _step(raw, op, lambda sigma=sigma: sl.kernel_vector((0.99, 0.0, 0.0), sigma, 30))
        return raw

    def extract(self, st, raw):
        ops = _demo_extract(st["demo"], raw.pop("demo"))
        for op, res in raw.items():
            if isinstance(res, Exception):
                ops[op] = res
            elif op.startswith("sup-"):
                ops[op] = {"value": res.value, "sphere_residual": res.sphere_residual,
                           "ideal_residual": res.ideal_residual}
            else:
                ops[op] = {"normalization": res.normalization,
                           "norm_sq_truncated": res.norm_sq_truncated,
                           "tail_bound": res.tail_bound}
        return ops


# the parts a benchmark workload is made of (checks.WORKLOADS)
PARTS = {
    "tier1": Tier1(),
    "graded-d3": GradedD3(),
    "boundary-d3": BoundaryD3(),
}
