"""One workload in one fresh process: set-up, an untimed warm-up job, then
timed jobs for a fixed number of seconds, one solve at a time.

Prints one JSON line with the raw samples; ``run.py`` turns them into
metrics. Run through ``run.py``; the arguments below are internal.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# BLAS/OpenMP pools; pinned to one thread before numpy is first imported
PIN_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parents[1]


def environment(np):
    from importlib import metadata

    from tlf import _accel

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba_installed": _accel.HAVE_NUMBA,
        "numba_enabled": _accel.NUMBA_ENABLED,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pins": {var: os.environ[var] for var in PIN_VARS},
        "TLF_NUMBA": os.environ.get("TLF_NUMBA"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--spans", help="CSV file for the traced run's spans")
    args = parser.parse_args()

    for var in PIN_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tlf

    if Path(tlf.__file__).resolve().parent != (src / "tlf").resolve():
        sys.exit(f"tlf imported from {tlf.__file__}, not from {src}")
    import numpy as np

    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.begin_job("setup")
    workload = workloads.build(args.workload, args.seed, args.quick)
    if tracer:
        tracer.end_job()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    workloads.warm_up(workload)
    job_s, outcomes, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    # start a job while at least half of a typical one fits in the budget, so
    # that the measured time is the budget give or take half a job
    while not job_s or time.perf_counter() - start + statistics.median(job_s) / 2 <= args.seconds:
        if tracer:
            tracer.begin_job(len(job_s))
        t = time.perf_counter()
        solves = workloads.run_job(workload)
        job_s.append(time.perf_counter() - t)
        if tracer:
            tracer.end_job()
        # checked outside the timed region, then dropped, so that memory
        # does not grow with the number of jobs
        if not outcomes:
            psnr = workloads.mean_psnr(solves)
            pin_problems = workloads.check_pins(args.workload, args.seed, args.quick, solves)
        outcomes.append(workloads.outcome_counts(solves))
        for solve in solves:
            problems = workloads.check(solve)
            attempted += 1
            failed += bool(problems)
            failures.extend(problems)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "env": environment(np),
        "job_s": job_s,
        "outcomes": outcomes,
        "psnr": psnr,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "pin_problems": pin_problems,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        out["setup_layers"] = tracer.job_layers("setup")
        out["layers"] = [tracer.job_layers(j) for j in range(len(job_s))]
        if args.spans:
            tracer.write_csv(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
