"""One pass of one workload, in a fresh process (started by run.py).

    python3 bench/one_pass.py --root . --workload tier1 --seed 0 --trace 0 \
        --work-dir <dir> --out <file.json> [--setup-only]

Imports shiftlab from ``<root>/src`` (module caches start empty, as for a CLI
user), builds the inputs, then times the workload from ready to done with
library warnings captured, and writes one JSON record: times, peak RSS,
outputs per op, warnings, provenance and, when traced, the spans.

``setup_s`` and ``wall_s`` are clock time less the time the main thread spent
waiting in the run queue for a CPU (``/proc/self/schedstat``), so that other
processes on a shared machine do not show as slower code; ``setup_clock_s``
and ``clock_s`` keep the plain clock time.
"""

import time


def _queued_s() -> float:
    """Seconds this process's main thread has been runnable but waiting for a
    CPU (``/proc/self/schedstat``, second field); 0 where it is not reported."""
    try:
        with open("/proc/self/schedstat") as f:
            return int(f.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


T0, Q0 = time.perf_counter(), _queued_s()  # as early in the process as can be

import argparse
import ctypes
import glob
import json
import resource
import sys
import warnings
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_provenance(np) -> dict:
    info = {"blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
    return info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = args.root.resolve()

    t, q = time.perf_counter(), _queued_s()
    import shiftlab
    import_s = (time.perf_counter() - t) - (_queued_s() - q)
    src = (root / "src").resolve()
    if Path(shiftlab.__file__).resolve().parent.parent != src:
        print(f"shiftlab imported from {shiftlab.__file__}, not from {src}", file=sys.stderr)
        return 3

    import checks
    import workloads

    parts = [workloads.PARTS[p] for p in checks.WORKLOADS[args.workload]]
    states = [part.setup(args.seed, args.work_dir, root) for part in parts]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
    ready, q_ready = time.perf_counter(), _queued_s()
    # Times leave out the main thread's run-queue wait: CPUs taken by other
    # processes on the machine would otherwise show as slower code.
    record = {"setup_s": (ready - T0) - (q_ready - Q0), "import_s": import_s,
              "setup_clock_s": ready - T0}
    if args.setup_only:
        args.out.write_text(json.dumps(record))
        return 0

    cpu0 = _cpu_s()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        raws = [part.run(st) for part, st in zip(parts, states)]
    done, q_done = time.perf_counter(), _queued_s()
    record["wall_s"] = (done - ready) - (q_done - q_ready)
    record["clock_s"] = done - ready
    record["cpu_s"] = _cpu_s() - cpu0
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ops = {}
    for part, st, raw in zip(parts, states, raws):
        try:
            ops.update(part.extract(st, raw))
        except Exception as exc:  # an unreadable result fails every op
            ops.update({op: exc for op in raw})
    record["ops"] = {
        op: {"error": f"{type(v).__name__}: {v}"} if isinstance(v, Exception) else {"outputs": v}
        for op, v in ops.items()
    }
    counts: dict[tuple[str, str], int] = {}
    for w in caught:
        key = (w.category.__name__, str(w.message))
        counts[key] = counts.get(key, 0) + 1
    record["warnings"] = [{"category": c, "message": m, "count": n}
                          for (c, m), n in sorted(counts.items())]

    import numpy as np
    import scipy
    record["provenance"] = {
        "shiftlab_file": str(Path(shiftlab.__file__).resolve().relative_to(root)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **_blas_provenance(np),
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
