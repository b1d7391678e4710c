"""Time the numpy kernels in isolation.

Usage:  python3 benchmarks/bench_kernels.py [--size N] [--repeats R]

Kernels are timed in isolation, so this cannot say where a solve spends its
time. It is a supporting check only; the end-to-end and per-layer benchmark
is ``python3 bench_e2e/run.py --workload ...`` (see bench_e2e/README.md).
"""

import argparse
import timeit

import numpy as np

from tlf import _kernels as K


def time_call(fn, repeats):
    best = min(timeit.repeat(fn, number=1, repeat=repeats))
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    n = args.size
    rng = np.random.default_rng(0)
    flat = rng.uniform(-2.0, 2.0, size=n * n)
    img = rng.standard_normal((n, n))

    cases = [
        ("prox p=1/2", lambda: K.prox_half(flat, 0.1)),
        ("prox p=2/3", lambda: K.prox_twothirds(flat, 0.1)),
        ("haar fwd 3-level", lambda: K.haar2_forward(img, 3)),
        ("haar inv 3-level", lambda: K.haar2_inverse(img, 3)),
        ("lcg gaussian", lambda: K.lcg_gaussian(7, n * n)),
        ("recursive smooth", lambda: K.smooth_recursive(img, 0.6)),
    ]

    print(f"kernel benchmark, size {n} ({n * n} elements), best of {args.repeats}\n")
    header = f"{'kernel':<20} {'numpy':>12}"
    print(header)
    print("-" * len(header))
    for name, fn in cases:
        print(f"{name:<20} {time_call(fn, args.repeats) * 1e3:>10.3f}ms")


if __name__ == "__main__":
    main()
