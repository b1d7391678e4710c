"""Print one sha256 per benchmark workload over everything its solves return.

Usage:  python3 benchmarks/solve_digest.py [--seed N] [--quick] [--summary]

A refactor that claims to keep every solve bit-identical runs this at the
parent commit and at the change, with the same arguments, and compares the
lines. Each workload's digest covers, per solve of one benchmark job
(``bench_e2e/workloads.py``: ``build`` then ``run_job``), the final image
bytes, the F trace, the iteration count and the MDUS/BUS branch tags.
``derain-64-states`` also covers every intermediate derain state: both
layers, both codes, eta1, eta2, alpha and the step's trace record.

``--summary`` also prints, under each workload's digest, one line per solve
with its iteration count and PSNR to 1e-6 dB. A change that is deliberately
not bit-identical on a workload shows with it that iterations and PSNR
still match.

Exits 1 when a solve raised; the digests are printed first either way.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench_e2e")]

from run import WORKLOADS  # noqa: E402
from tlf import fixtures, tasks  # noqa: E402
from tlf.metrics import psnr  # noqa: E402
from tlf.trace import IterateTrace  # noqa: E402
from workloads import build, run_job  # noqa: E402


def _floats(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def solve_digest(solves):
    h = hashlib.sha256()
    for s in solves:
        h.update(s.solver.encode())
        if s.error is not None:
            h.update(s.error.encode())
            continue
        h.update(s.image.data.tobytes())
        h.update(_floats(s.F_values))
        h.update(str(s.iterations).encode())
        h.update("\n".join(s.mdus + ["|"] + s.bus).encode())
    return h.hexdigest()


def solve_summary(s):
    if s.error is not None:
        return f"  {s.solver} error {s.error}"
    return f"  {s.solver} iterations={s.iterations} psnr={psnr(s.image, s.ground_truth):.6f}"


def derain_states_digest(workload):
    """Every state of the derain job's step loop, run again outside the job."""
    h = hashlib.sha256()
    params = workload.params
    denoisers = fixtures.derain_denoisers()
    for y, _ in workload.instances:
        state = tasks.derain_init(y, tasks.DerainWeights(), params)
        trace = IterateTrace("dtlf")
        for k in range(params.max_iters):
            state, rec = tasks.derain_step(y, state, denoisers, params, k)
            trace.append(rec)
            for layer in (state.x_b, state.x_r, state.beta, state.gamma):
                h.update(layer.data.tobytes())
            h.update(_floats([state.eta1, state.eta2, state.alpha]))
        h.update(trace.to_csv().encode())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=42, help="workload seed passed to the fixture functions")
    parser.add_argument("--quick", action="store_true", help="16x16 fixtures and 5-iteration budgets")
    parser.add_argument("--summary", action="store_true", help="also print each solve's iterations and PSNR")
    args = parser.parse_args()

    failed = 0
    for name in WORKLOADS:
        workload = build(name, args.seed, quick=args.quick)
        solves = run_job(workload)
        failed += sum(s.error is not None for s in solves)
        print(f"{name} {solve_digest(solves)}", flush=True)
        if args.summary:
            print("\n".join(solve_summary(s) for s in solves), flush=True)
        if name == "derain-64":
            print(f"{name}-states {derain_states_digest(workload)}", flush=True)
    if failed:
        print(f"error: {failed} solve(s) raised", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
