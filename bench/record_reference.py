"""Record ``reference.json``: every op's outputs from one pass at seed 0.

    python3 bench/record_reference.py

Run once at the commit whose outputs are the reference.  Refuses to write if
a pass fails or a closed-form check fails.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
from run import BENCH, RUN_LIMIT_S, WORK, run_pass


def main() -> int:
    reference = {}
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for k, workload in enumerate(checks.WORKLOADS):
            rec = run_pass(workload, 0, False, work_dir, k, RUN_LIMIT_S)
            if rec is None:
                return 1
            for part in checks.WORKLOADS[workload]:
                reference[part] = {op: rec["ops"][op].get("outputs")
                                   for op in checks.OPS[part] if op in rec["ops"]}
            failures = checks.check_workload(workload, 0, rec, reference)
            bad = {op: m for op, m in failures.items() if m}
            if bad:
                print(f"{workload}: {bad}", file=sys.stderr)
                return 1
            print(f"{workload}: {len(rec['ops'])} ops recorded")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        WORK.rmdir()
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
