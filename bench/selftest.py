"""Self-test of the output checks: a perturbed output must count as failed.

    python3 bench/selftest.py

Feeds ``checks.check_pass`` the recorded reference outputs (all must pass),
then perturbs every output of every op, one at a time, and requires the op to
fail; the only outputs allowed to go unnoticed are those ``checks.py``
deliberately leaves unchecked (``UNCHECKED`` below).  It also checks that a
raised op, a lost pass and a demo artifact that differs between passes are
failures, and repeats the perturbation on one real graded-boundary-d3 pass.
"""

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import checks
from run import BENCH, RUN_LIMIT_S, WORK, run_pass

LIVE = "graded-boundary-d3"  # the workload of the live pass: it holds the demo run

# excluded on purpose in checks.py: round-off slopes of the demo commutators,
# and the AA* dictionary size and rank that ROADMAP item 2 changes
UNCHECKED = re.compile(r"boundary-d3/demo\.commutators/headline\..*\.increment_slopes\..*"
                       r"|boundary-d3/demo\.aastar/series\.residuals\.\d+\.[34]$")


def _perturbed(v):
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, float):
        return v + max(1e-4 * abs(v), 1e-4)
    if isinstance(v, str):
        return v + "?"
    return 0.0  # None


def _failed_ops(workload, ops, reference, digest=None):
    record = {"ops": {op: {"outputs": out} for op, out in ops.items()}}
    failures = checks.check_pass(workload, 0, record, reference, digest)
    return {op for op, msgs in failures.items() if msgs}


def _perturbation_misses(workload, ops, reference, digest) -> list[str]:
    """Outputs whose perturbation went unnoticed by the op's checks."""
    misses = []
    for op, outputs in ops.items():
        for key, value in outputs.items():
            changed = dict(ops, **{op: dict(outputs, **{key: _perturbed(value)})})
            if op not in _failed_ops(workload, changed, reference, digest):
                misses.append(f"{workload}/{op}/{key}")
    return misses


def main() -> int:
    reference = json.loads((BENCH / "reference.json").read_text())
    problems = []
    for workload, ops in reference.items():
        digest = ops[checks.DIGEST_OP]["digest"] if checks.DIGEST_OP in ops else None
        if set(ops) != set(checks.OPS[workload]):
            problems.append(f"{workload}: reference ops {sorted(ops)} != {checks.OPS[workload]}")
        if bad := _failed_ops(workload, ops, reference, digest):
            problems.append(f"{workload}: reference outputs fail {sorted(bad)}")
        misses = _perturbation_misses(workload, ops, reference, digest)
        problems += [f"perturbation not caught: {m}" for m in misses if not UNCHECKED.match(m)]
        print(f"{workload}: {sum(map(len, ops.values()))} outputs perturbed, "
              f"{len(misses)} unchecked by design")

        lost = checks.check_pass(workload, 0, None, reference)
        if not all(lost.values()):
            problems.append(f"{workload}: a lost pass is not a failure of every op")
        op = checks.OPS[workload][0]
        raised = {"ops": dict({o: {"outputs": v} for o, v in ops.items()},
                              **{op: {"error": "RuntimeError: boom"}})}
        if not checks.check_pass(workload, 0, raised, reference, digest)[op]:
            problems.append(f"{workload}: a raised op is not a failure")
    if checks.DIGEST_OP not in _failed_ops("boundary-d3", reference["boundary-d3"], reference,
                                          digest="0" * 64):
        problems.append("boundary-d3: differing demo artifacts are not a failure")

    # the same on a real pass, through run_pass and the pass process
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        rec = run_pass(LIVE, 7, False, work_dir, 0, RUN_LIMIT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        WORK.rmdir()
    if rec is None:
        problems.append(f"{LIVE} pass did not complete")
    else:
        live = {op: e["outputs"] for op, e in rec["ops"].items()}
        bad = {op for op, msgs in checks.check_workload(LIVE, 7, rec, reference).items()
               if msgs}
        if bad:
            problems.append(f"live {LIVE} pass fails {sorted(bad)}")
        op, key = "demo.essnorm-sum", "headline.estimate"
        live[op] = dict(live[op], **{key: live[op][key] * (1 + 1e-8)})
        record = {"ops": {o: {"outputs": out} for o, out in live.items()}}
        failures = checks.check_workload(LIVE, 7, record, reference)
        if not failures[op]:
            problems.append("live pass: demo estimate off by 1e-8 relative not caught")
        print(f"live {LIVE} pass, demo estimate off by 1e-8 relative: "
              f"{sum(1 for m in failures.values() if m)} of {len(failures)} ops failed")

    for p in problems:
        print("SELFTEST FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
