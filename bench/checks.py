"""Output checks behind the benchmark's failure count.

A benchmark workload runs one or more parts in a pass (``WORKLOADS``), and each
part has its ops (``OPS``).  A pass returns, per op, a flat dict of outputs
(``"f.10.50": 0.52``).
An operation fails if it raised, if one of its closed-form checks below fails,
or if a number differs from ``reference.json`` (outputs recorded at the seed
commit with workload seed 0) by more than ``REL_TOL`` relative, with an
absolute floor of ``ABS_FLOOR`` for values at round-off level.  Numbers that
depend on the workload seed are excluded from the reference comparison and
checked against closed forms at the optimizer tolerance instead, so every seed
passes the same checks.

This module is pure Python: the parent process checks results without
importing shiftlab.
"""

from __future__ import annotations

import math
import re

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
OPT_TOL = 1e-6  # boundary_sup closed forms
FEAS_TOL = 1e-8  # OptimizerConfig.feasibility_tol

SIGMAS = (0.5, 1.0, 1.5, 2.0)
Z1Z2_WINDOWS = ((10, 50), (20, 60), (40, 120))

# ops of the `shiftlab run configs/demo.yaml` step in boundary-d3: the run,
# then one per experiment of the config
DEMO_OPS = ["demo.run", "demo.dims", "demo.essnorm-sum", "demo.commutators",
            "demo.character-cube", "demo.aastar"]
DIGEST_OP = "demo.run"

OPS = {
    "tier1": [f"defects-d{d}-s{s:g}" for d in (2, 3) for s in SIGMAS]
    + ["windows-z1z2", "aastar-k1", "aastar-k2", "aastar-k3"],
    "graded-d3": ["basis", "shift-blocks", "defects", "commutators",
                  "essnorm-inhomogeneous", "essnorm-matrix"],
    "boundary-d3": DEMO_OPS + ["sup-w1w2-quadric", "sup-sum-normal-crossing",
                               "kernel-s0.5", "kernel-s1"],
}

# The benchmark's workloads: the parts each pass runs, in order.  graded-d3
# and boundary-d3 share a pass because, each in a workload of its own, their
# run medians spread too widely on a shared machine (see README.md).
# boundary-d3 goes first, so that its CLI run meets empty module caches.
WORKLOADS = {
    "tier1": ("tier1",),
    "graded-boundary-d3": ("boundary-d3", "graded-d3"),
}

# Outputs left out of the reference comparison, by part and op (regex on
# the output key).  Seed-dependent values carry closed-form checks below.
_NOT_REFERENCED = {
    ("boundary-d3", "demo.run"): [
        r"seed$",  # equals the workload seed
        r"digest$",  # compared across the passes of one run
    ],
    ("boundary-d3", "demo.essnorm-sum"): [
        # the optimizer's answer: depends on the seed
        r"headline\.(boundary_sup|boundary_point\..*|sphere_residual"
        r"|ideal_residual|basins)$",
        r"headline\.comparison\.(boundary_sup|gap|relative_gap)$",
    ],
    ("boundary-d3", "demo.commutators"): [
        # every increment inside the fit window is round-off (<= 1e-15), so
        # the fitted slopes are noise and change with any change of rounding
        r"headline\..*\.increment_slopes\..*",
    ],
    ("boundary-d3", "demo.aastar"): [
        # dictionary size and rank are solver diagnostics that ROADMAP item 2
        # changes on purpose; the residuals are the result
        r"series\.residuals\.\d+\.[34]$",
    ],
    ("boundary-d3", "sup-w1w2-quadric"): [r".*"],
    ("boundary-d3", "sup-sum-normal-crossing"): [r".*"],
}


def window_closed_form(m: int) -> float:
    """f(m, M) for z1z2 on the free d=2 Drury-Arveson space (M >= m + 2)."""
    return math.sqrt((m // 2 + 1) * ((m + 1) // 2 + 1) / ((m + 1) * (m + 2)))


def close(a, b, rel: float = REL_TOL, floor: float = ABS_FLOOR) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _get(out: dict, key: str, errors: list):
    if key not in out:
        errors.append(f"missing output {key}")
        return None
    return out[key]


def _at_most(out, key, bound, errors):
    v = _get(out, key, errors)
    if v is not None and not (_is_number(v) and v <= bound):
        errors.append(f"{key} = {v!r}, expected <= {bound:g}")


def _near(out, key, target, tol, errors):
    v = _get(out, key, errors)
    if v is not None and not (_is_number(v) and abs(v - target) <= tol):
        errors.append(f"{key} = {v!r}, expected {target!r} within {tol:g}")


def _equal(out, key, target, errors):
    v = _get(out, key, errors)
    if v is not None and (type(v) is not type(target) or v != target):
        errors.append(f"{key} = {v!r}, expected {target!r}")


# -- closed-form checks: fn(op_outputs, all_outputs, seed, errors)


def _check_defects(out, _all, _seed, errors):
    _at_most(out, "row_dev", 1e-10, errors)
    _at_most(out, "col_dev", 1e-10, errors)


def _check_z1z2_windows(out, _all, _seed, errors):
    for m, M in Z1Z2_WINDOWS:
        _near(out, f"f.{m}.{M}", window_closed_form(m), 1e-10, errors)
    _equal(out, "monotonicity_violations", 0, errors)


def _check_aastar(k):
    def check(out, all_outputs, _seed, errors):
        res = _get(out, "residual", errors)
        if res is None:
            return
        if k > 1:
            prev = (all_outputs.get(f"aastar-k{k - 1}") or {}).get("residual")
            if not (_is_number(prev) and res <= prev):
                errors.append(f"residual {res!r} not <= k={k - 1} residual {prev!r}")
        if k == 3:
            _at_most(out, "residual", 0.05, errors)
    return check


def _check_graded_basis(out, _all, _seed, errors):
    dims = {k: v for k, v in out.items() if k.startswith("dim.")}
    if len(dims) != 41:
        errors.append(f"{len(dims)} degrees, expected 41")
    for n in range(41):
        _equal(out, f"dim.{n}", 2 * n + 1, errors)


def _check_graded_defects(out, _all, _seed, errors):
    _at_most(out, "row_contraction_excess", 1e-10, errors)


def _check_sup(target):
    def check(out, _all, _seed, errors):
        _near(out, "value", target, OPT_TOL, errors)
        _at_most(out, "sphere_residual", FEAS_TOL, errors)
        _at_most(out, "ideal_residual", FEAS_TOL, errors)
    return check


def _check_kernel(out, _all, _seed, errors):
    a = _get(out, "norm_sq_truncated", errors)
    b = _get(out, "tail_bound", errors)
    if _is_number(a) and _is_number(b) and not abs(a + b - 1.0) <= 1e-12:
        errors.append(f"norm_sq_truncated + tail_bound = {a + b!r}, expected 1")


def _check_demo_run(out, _all, seed, errors):
    _equal(out, "exit_code", 0, errors)
    _equal(out, "seed", seed, errors)


def _check_demo_status(out, _all, _seed, errors):
    _equal(out, "status", "ok", errors)


def _check_demo_essnorm(out, all_outputs, seed, errors):
    _check_demo_status(out, all_outputs, seed, errors)
    h = "headline."
    _near(out, h + "boundary_sup", 1.0, OPT_TOL, errors)
    _at_most(out, h + "sphere_residual", FEAS_TOL, errors)
    _at_most(out, h + "ideal_residual", FEAS_TOL, errors)
    _equal(out, h + "comparison.verdict", "match", errors)
    sup = out.get(h + "boundary_sup")
    est = out.get(h + "estimate")
    if not (_is_number(sup) and _is_number(est)):
        errors.append("boundary_sup or estimate missing")
        return
    _near(out, h + "comparison.boundary_sup", sup, 0.0, errors)
    _near(out, h + "comparison.gap", est - sup, 0.0, errors)
    _near(out, h + "comparison.relative_gap", (est - sup) / max(abs(est), abs(sup), 1e-30),
          0.0, errors)
    # p = 1 on the whole variety sphere, whose two components e1 and e2 (up
    # to phase) are the two basins
    _equal(out, h + "basins", 2, errors)
    try:
        z = [complex(out[f"{h}boundary_point.{k}.0"], out[f"{h}boundary_point.{k}.1"])
             for k in (0, 1)]
    except (KeyError, TypeError):
        errors.append("boundary_point missing")
        return
    # a point of the variety z1*z2 = 0 on the unit sphere, where |z1+z2| = sup
    if abs(abs(z[0]) ** 2 + abs(z[1]) ** 2 - 1.0) > FEAS_TOL:
        errors.append(f"boundary_point {z} off the unit sphere")
    if abs(z[0] * z[1]) > FEAS_TOL:
        errors.append(f"boundary_point {z} off the variety z1*z2 = 0")
    if abs(abs(z[0] + z[1]) - sup) > 1e-9:
        errors.append(f"|p(boundary_point)| = {abs(z[0] + z[1])!r} != sup {sup!r}")


CLOSED_FORM = {
    ("boundary-d3", "demo.run"): _check_demo_run,
    ("boundary-d3", "demo.essnorm-sum"): _check_demo_essnorm,
    ("tier1", "windows-z1z2"): _check_z1z2_windows,
    ("graded-d3", "basis"): _check_graded_basis,
    ("graded-d3", "defects"): _check_graded_defects,
    ("boundary-d3", "sup-w1w2-quadric"): _check_sup(0.5),
    ("boundary-d3", "sup-sum-normal-crossing"): _check_sup(math.sqrt(2.0)),
    ("boundary-d3", "kernel-s0.5"): _check_kernel,
    ("boundary-d3", "kernel-s1"): _check_kernel,
}
for _op in OPS["tier1"]:
    if _op.startswith("defects-"):
        CLOSED_FORM[("tier1", _op)] = _check_defects
for _k in (1, 2, 3):
    CLOSED_FORM[("tier1", f"aastar-k{_k}")] = _check_aastar(_k)
for _op in ("demo.dims", "demo.commutators", "demo.character-cube", "demo.aastar"):
    CLOSED_FORM[("boundary-d3", _op)] = _check_demo_status


def _check_reference(workload, op, out, ref, errors):
    skip = [re.compile(p) for p in _NOT_REFERENCED.get((workload, op), [])]
    for key, want in ref.items():
        if any(p.match(key) for p in skip):
            continue
        if not (_is_number(want) or isinstance(want, bool)):
            continue  # strings are covered by the closed-form checks
        got = _get(out, key, errors)
        if got is None:
            continue
        if isinstance(want, bool) or not _is_number(got):
            if got != want:
                errors.append(f"{key} = {got!r}, reference {want!r}")
        elif not close(got, want):
            errors.append(f"{key} = {got!r}, reference {want!r}")


def check_workload(workload: str, seed: int, result: dict | None, reference: dict,
                   digest: str | None = None) -> dict[str, list[str]]:
    """``check_pass`` over every part of a benchmark workload."""
    failures = {}
    for part in WORKLOADS[workload]:
        failures.update(check_pass(part, seed, result, reference, digest))
    return failures


def check_pass(workload: str, seed: int, result: dict | None, reference: dict,
               digest: str | None = None) -> dict[str, list[str]]:
    """Failure messages per expected op of one part (``workload`` names a key
    of ``OPS``) in one pass; an empty list is a pass.

    ``result`` is the pass record (None if the pass process died); ``digest``
    is the demo artifact digest of the run's first pass, which every later
    pass must reproduce byte for byte.
    """
    failures = {}
    ops = (result or {}).get("ops", {})
    for op in OPS[workload]:
        errors: list[str] = []
        entry = ops.get(op)
        if entry is None:
            errors.append("no result")
        elif "error" in entry:
            errors.append(f"raised {entry['error']}")
        else:
            out = entry["outputs"]
            check = CLOSED_FORM.get((workload, op))
            if check is not None:
                all_outputs = {k: v.get("outputs") for k, v in ops.items()}
                check(out, all_outputs, seed, errors)
            ref = reference.get(workload, {}).get(op)
            if ref is None:
                errors.append("no reference recorded")
            else:
                _check_reference(workload, op, out, ref, errors)
            if digest is not None and op == DIGEST_OP and out.get("digest") != digest:
                errors.append("artifacts differ from the run's first pass")
        failures[op] = errors
    return failures
