"""Print one sha256 per benchmark workload over everything its solves return.

Usage:  python3 benchmarks/solve_digest.py [--seed N] [--quick] [--summary] [--cli]

A refactor that claims to keep every solve bit-identical runs this at the
parent commit and at the change, with the same arguments, and compares the
lines. Each workload's digest covers, per solve of one benchmark job
(``bench_e2e/workloads.py``: ``build`` then ``run_job``), the final image
bytes, the F trace, the iteration count and the MDUS/BUS branch tags.
``derain-64-states`` also covers every intermediate derain state: both
layers, both codes, the anchor weight mu twice, alpha and the step's trace
record. mu is hashed twice because derain once kept two anchor weights,
eta1 and eta2, that were equal at every step: ``[mu, mu, alpha]`` are the
bytes ``[eta1, eta2, alpha]`` were, so the line stays comparable across
that change.

``--summary`` also prints, under each workload's digest, one line per solve
with its iteration count and PSNR to 1e-6 dB. A change that is deliberately
not bit-identical on a workload shows with it that iterations and PSNR
still match.

``--cli`` prints, in place of the workload lines, one line per CLI
subcommand (deblur, inpaint, derain, bench). Each runs ``tlf.cli.main``
in-process on 16x16 and 32x32 fixtures, with and without ``--gt`` (bench:
``--jobs`` 1 and 2), and its sha256 covers the exit code and the relative
path and bytes of every file each run writes. A change that claims to keep
the CLI's output byte-stable shows it with these lines.

Exits 1 when a solve raised or a CLI run exited nonzero; the digests are
printed first either way.

Like the benchmark worker, the script sets the worker's ``PIN_VARS`` (the
OpenMP, OpenBLAS, MKL, vecLib and numexpr thread counts) to 1 before numpy
is imported. At 128x128 and up, BLAS reductions (``np.vdot``,
``np.linalg.norm``) round differently at 1 and at 2 threads, so F values,
norms and traces, and with them the digests, depend on the thread count:
unpinned, two machines or two shells would print different lines for the
same solves.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench_e2e")]

from worker import PIN_VARS  # noqa: E402

for var in PIN_VARS:
    os.environ[var] = "1"

import numpy as np  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tlf import cli, fixtures, tasks  # noqa: E402
from tlf.formats import write_kernel, write_mask, write_tlft  # noqa: E402
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
        trace = IterateTrace()
        for k in range(params.max_iters):
            state, rec = tasks.derain_step(y, state, denoisers, params, k)
            trace.append(rec)
            for layer in (state.x_b, state.x_r, state.beta, state.gamma):
                h.update(layer.data.tobytes())
            h.update(_floats([state.mu, state.mu, state.alpha]))
        h.update(trace.to_csv().encode())
    return h.hexdigest()


# Each subcommand's runs. File arguments name the inputs _write_cli_inputs
# makes; every run also gets --levels 2 --max-iters 10 and its own --out.
CLI_RUNS = {
    "deblur": [
        ["--input", "blurry.tlft", "--kernel", "kernel.txt", "--gt", "gt.tlft", "--solver", "pg"],
        ["--input", "blurry.tlft", "--kernel", "kernel.txt", "--solver", "dtlf", "--noise", "1"],
    ],
    "inpaint": [
        ["--input", "masked.tlft", "--mask", "mask.pgm", "--gt", "inpaint_gt.tlft", "--solver", "dtlf"],
        ["--input", "masked.tlft", "--mask", "mask.pgm", "--solver", "tlf"],
    ],
    "derain": [
        ["--input", "rainy.tlft", "--gt", "rain_gt.tlft"],
        ["--input", "rainy.tlft"],
    ],
    "bench": [
        ["--input", "gt.tlft", "--kernel", "kernel.txt", "--noise", "1", "--solver", "pg,tlf,dtlf", "--jobs", "1"],
        ["--input", "gt.tlft", "--kernel", "kernel.txt", "--noise", "1", "--solver", "pg,tlf,dtlf", "--jobs", "2"],
    ],
}


def _write_cli_inputs(root, seed):
    gt, kernel, blurry = fixtures.deblur_fixture(seed=seed, size=32)
    write_tlft(root / "blurry.tlft", blurry)
    write_tlft(root / "gt.tlft", gt)
    write_kernel(root / "kernel.txt", kernel)
    gt, mask, observed = fixtures.inpaint_fixture(seed=seed, size=16)
    write_tlft(root / "masked.tlft", observed)
    write_tlft(root / "inpaint_gt.tlft", gt)
    write_mask(root / "mask.pgm", mask)
    y, x_b, _ = fixtures.rain_fixture(seed=seed, size=32)
    write_tlft(root / "rainy.tlft", y)
    write_tlft(root / "rain_gt.tlft", x_b)


def cli_digests(seed):
    """Yield (subcommand, sha256, nonzero exits) over every file its runs write."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_cli_inputs(root, seed)
        for command, runs in CLI_RUNS.items():
            h = hashlib.sha256()
            failed = 0
            for i, run in enumerate(runs):
                run_dir = root / f"{command}{i}"
                argv = [str(root / a) if a.endswith((".tlft", ".txt", ".pgm")) else a for a in run]
                code = cli.main([command, *argv, "--levels", "2", "--max-iters", "10", "--out", str(run_dir)])
                failed += code != 0
                h.update(f"exit {code}\n".encode())
                for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
                    h.update(path.relative_to(run_dir).as_posix().encode() + b"\n")
                    h.update(path.read_bytes())
            yield command, h.hexdigest(), failed


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=42, help="workload seed passed to the fixture functions")
    parser.add_argument("--quick", action="store_true", help="16x16 fixtures and 5-iteration budgets")
    parser.add_argument("--summary", action="store_true", help="also print each solve's iterations and PSNR")
    parser.add_argument("--cli", action="store_true", help="digest the files each CLI subcommand writes instead")
    args = parser.parse_args()

    failed = 0
    if args.cli:
        for command, digest, nonzero in cli_digests(args.seed):
            failed += nonzero
            print(f"cli-{command} {digest}", flush=True)
    else:
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
        print(f"error: {failed} solve(s) raised or CLI run(s) failed", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
