"""Wall-time benchmark of the repro stack: one workload per process.

Usage (from the root of a checkout)::

    python3 wallbench/run.py --workload solve-large --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, with wall times put at the
reference host speed of ``hostspeed.py``; ``--trace 1`` wraps each layer's
entry points (see ``layers.py``) and prints per-layer self time and counts
instead, as timed.  ``--smoke`` shrinks every workload to a size that
finishes in seconds, with all checks on.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is an ``info`` record (versions, core
count, BLAS threads, failures by reason).  Exit code 0 means every
check passed.  Exit code 1 with a result line means a check failed;
without one, the program could not be loaded from this checkout.
"""

import os
import sys
import time

# Noise controls that must precede the first numpy import: one BLAS thread
# (two threads on a two-core host made one trsm() call slower and the
# round-to-round spread four times wider).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _load_program() -> float:
    """Import the program from this checkout's ``src``; return the import time."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import repro  # noqa: F401
        import repro.api.online.daemon  # noqa: F401
        import repro.api.serve  # noqa: F401
    except ImportError as e:
        sys.exit(f"wallbench: cannot import repro from {SRC}: {e}")
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"wallbench: repro was imported from {origin}, not from {SRC}")
    return time.perf_counter() - t0


def _import_in_child() -> float:
    """One more import of the program, timed inside a fresh interpreter."""
    code = (
        "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import repro, repro.api.online.daemon, repro.api.serve; "
        "print(time.perf_counter() - t0)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout)


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked of the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, seconds to run")
    args = ap.parse_args(argv)

    first_import = _load_program()
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"wallbench: unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    # set-up runs several times and reports medians: the import in three
    # fresh interpreters (the environment above is inherited), timed by the
    # child and put at the reference speed by the samples this process takes
    # while it waits; the rest in this process
    host = wl.host
    imports = []
    with host:
        for _ in range(1 if args.smoke else 3):
            t0 = time.perf_counter()
            dt = _import_in_child()
            imports.append((dt, host.slowdown(t0, time.perf_counter())))
    set_ups = wl.set_up()
    setup_s = statistics.median(dt / slow for dt, slow in imports) + statistics.median(
        host.at_ref(*w) for w in set_ups
    )
    setup_as_timed = statistics.median(dt for dt, _ in imports) + statistics.median(
        host.own(*w) for w in set_ups
    )

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    gc.collect()
    # the tracer's self times are taken as timed, with no samples inside
    wl.run(args.seconds, sample_host=not args.trace)
    report = wl.check()

    if tracer is not None:
        metrics = tracer.metrics(wl)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            **wl.end_to_end(),
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "rounds": wl.rounds,
        "import_s": [round(first_import, 4)] + [round(dt, 4) for dt, _ in imports],
        "setup_reps_s": [round(host.own(*w), 4) for w in set_ups],
        "setup_s_as_timed": setup_as_timed,
        "failures": report.reasons,
        "check_errors": report.errors[:5],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        **wl.info(),
    }
    print(json.dumps({"info": info}))
    correct = not report.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
