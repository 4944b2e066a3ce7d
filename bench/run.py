"""shiftlab benchmark: run one workload, check its outputs, print every metric.

    python3 bench/run.py --workload tier1 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout.  Each pass runs in a fresh Python
process (``one_pass.py``) that imports shiftlab from ``src/``, exactly as
``shiftlab run`` does, so module-level caches start empty.  One client runs
one pass at a time (a closed loop); BLAS keeps its default thread count.
Passes start until ``--seconds`` have elapsed, not counting the setup-only
processes that run between them (``--trace 0``) to sample ``setup_s``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
(medians over the run's passes); ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics from the traced ones.  Every output
is checked (``checks.py``); the last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 20  # setup_s is the median of at least this many processes
SETUP_PER_PASS = 4  # setup-only processes after each untraced pass
RUN_LIMIT_S = 165.0  # no pass may run past this many seconds after start


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(loadavg: str | None, first_pass: dict | None) -> dict:
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    revision = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if revision else None
    return {
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **((first_pass or {}).get("provenance") or {}),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_at_start": loadavg,
        "run_queue_wait_subtracted": Path("/proc/self/schedstat").exists(),
    }


def run_pass(workload: str, seed: int, traced: bool, work_dir: Path, k: int,
             timeout: float, setup_only: bool = False) -> dict | None:
    """Run one pass process; its record, or None if it failed or timed out."""
    out = work_dir / f"pass-{k}.json"
    pass_dir = work_dir / f"pass-{k}"
    pass_dir.mkdir()
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
           "--work-dir", str(pass_dir), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass {k}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    if proc.returncode != 0 or not out.exists():
        print(f"pass {k}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    record = json.loads(out.read_text())
    out.unlink()
    return record


def end_to_end_metrics(passes, setup_samples) -> dict:
    return {
        "wall_s": median(r["wall_s"] for r in passes),
        "setup_s": median(setup_samples),
        "peak_rss_mb": median(r["maxrss_kb"] / 1024 for r in passes),
    }


def per_layer_metrics(untraced, traced, failed, attempted) -> dict:
    layers = []
    for r in traced:
        rank_deficient = sum(w["count"] for w in r["warnings"]
                             if w["message"].startswith("rank-deficient dictionary"))
        layers.append(tracing.reduce(r["trace"], rank_deficient))
    metrics = {name: median(m[name] for m in layers) for name in layers[0]}
    metrics["process.import_s"] = median(r["import_s"] for r in untraced + traced)
    metrics["process.cpu_s"] = median(r["cpu_s"] for r in untraced)
    metrics["process.run_queue_s"] = median(r["clock_s"] - r["wall_s"] for r in untraced)
    metrics["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                   - median(r["wall_s"] for r in untraced))
    metrics["failed_frac"] = failed / attempted
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(checks.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "shiftlab" / "__init__.py").is_file():
        print(f"no shiftlab source under {ROOT / 'src'}: run from a checkout",
              file=sys.stderr)
        return 2
    ref_path = BENCH / "reference.json"
    reference = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    loadavg = None
    if Path("/proc/loadavg").exists():
        loadavg = " ".join(Path("/proc/loadavg").read_text().split()[:3])

    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    start = time.perf_counter()
    setup_only_s = 0.0  # time in setup-only processes, not counted in --seconds
    records: list[tuple[bool, dict | None]] = []
    setup_samples: list[float] = []
    k = itertools.count()

    def sample_setup(n: int) -> None:
        nonlocal setup_only_s
        t = time.perf_counter()
        for _ in range(n):
            remaining = RUN_LIMIT_S - (time.perf_counter() - start)
            if remaining < 10:
                break
            rec = run_pass(args.workload, args.seed, False, work_dir, next(k), remaining,
                           setup_only=True)
            if rec is None:
                break
            setup_samples.append(rec["setup_s"])
        setup_only_s += time.perf_counter() - t

    try:
        while True:
            elapsed = time.perf_counter() - start
            n_traced = sum(t for t, _ in records)
            traced = bool(args.trace) and len(records) - n_traced > n_traced
            need_both = args.trace and (n_traced == 0 or n_traced == len(records))
            if records and elapsed - setup_only_s >= args.seconds and not need_both:
                break
            if elapsed >= RUN_LIMIT_S / 2 and records:
                break  # a pass as long as all before it might not fit
            rec = run_pass(args.workload, args.seed, traced, work_dir, next(k),
                           RUN_LIMIT_S - elapsed)
            records.append((traced, rec))
            if rec is not None:
                setup_samples.append(rec["setup_s"])
            if not args.trace:
                # The machine's speed drifts over tens of seconds: setup
                # samples spread over the run agree better from run to run
                # than a burst of them at its end.
                sample_setup(SETUP_PER_PASS)
        if not args.trace:
            sample_setup(SETUP_SAMPLES - len(setup_samples))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it

    first = next((r for _, r in records if r is not None), None)
    print("provenance " + json.dumps(provenance(loadavg, first), sort_keys=True))

    digest = None
    if first is not None:
        digest = ((first["ops"].get(checks.DIGEST_OP) or {}).get("outputs") or {}).get("digest")
    attempted = failed = 0
    for k, (traced, rec) in enumerate(records):
        failures = checks.check_workload(args.workload, args.seed, rec, reference, digest)
        attempted += len(failures)
        bad = {op: msgs for op, msgs in failures.items() if msgs}
        failed += len(bad)
        if rec is not None:
            print(f"pass {k} {'traced' if traced else 'untraced'}: "
                  f"wall_s={rec['wall_s']:.4f} (clock {rec['clock_s']:.4f}) "
                  f"setup_s={rec['setup_s']:.4f} (clock {rec['setup_clock_s']:.4f}) "
                  f"peak_rss_mb={rec['maxrss_kb'] / 1024:.1f} "
                  f"ops={len(failures)} failed={len(bad)}")
            for w in rec["warnings"]:
                print(f"  captured {w['category']} x{w['count']}: {w['message']}")
        for op, msgs in bad.items():
            print(f"  FAILED {op}: " + "; ".join(msgs[:5]))

    untraced = [r for t, r in records if not t and r is not None]
    traced = [r for t, r in records if t and r is not None]
    if not untraced or (args.trace and not traced):
        print("no pass completed: nothing to measure", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer_metrics(untraced, traced, failed, attempted)
        declared = spec["per_layer"]
    else:
        values = end_to_end_metrics(untraced, setup_samples)
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            print(f"metric {m['name']} absent ({m['unit']})")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(f"passes untraced={len(untraced)} traced={len(traced)} "
          f"setup_samples={len(setup_samples)} attempted={attempted} failed={failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
