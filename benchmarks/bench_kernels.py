"""Benchmark the numba kernels against their pure-numpy fallbacks.

Usage:  python3 benchmarks/bench_kernels.py [--size N] [--repeats R]

Each kernel is timed on both paths regardless of the TLF_NUMBA switch; the
numba variants are warmed up first so compilation is excluded.

Kernels are timed in isolation, so this cannot say where a solve spends its
time. It is a supporting check only; the end-to-end and per-layer benchmark
is ``python3 bench_e2e/run.py --workload ...`` (see bench_e2e/README.md).
"""

import argparse
import timeit

import numpy as np

from tlf import _kernels as K
from tlf._accel import HAVE_NUMBA


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
    taps = rng.standard_normal((9, 9))
    out = np.empty_like(flat)

    cases = [
        ("prox p=1/2", lambda: K.prox_half_numpy(flat, 0.1),
         (lambda: K.prox_half_nb(flat, 0.1, out)) if HAVE_NUMBA else None),
        ("prox p=2/3", lambda: K.prox_twothirds_numpy(flat, 0.1),
         (lambda: K.prox_twothirds_nb(flat, 0.1, out)) if HAVE_NUMBA else None),
        ("haar fwd 3-level", lambda: K.haar2_forward_numpy(img, 3),
         (lambda: K.haar2_forward_nb(img, 3)) if HAVE_NUMBA else None),
        ("haar inv 3-level", lambda: K.haar2_inverse_numpy(img, 3),
         (lambda: K.haar2_inverse_nb(img, 3)) if HAVE_NUMBA else None),
        ("direct conv 9x9", lambda: K.conv2_circular_direct_numpy(img, taps),
         (lambda: K.conv2_circular_direct_nb(img, taps)) if HAVE_NUMBA else None),
        ("lcg gaussian", lambda: K.lcg_gaussian_numpy(7, n * n),
         (lambda: K.lcg_gaussian_nb(7, n * n)) if HAVE_NUMBA else None),
        ("recursive smooth", lambda: K.smooth_recursive_numpy(img, 0.6),
         (lambda: K.smooth_recursive_nb(img, 0.6)) if HAVE_NUMBA else None),
    ]

    if HAVE_NUMBA:
        for _, _, nb in cases:
            nb()  # warm-up / compile
    else:
        print("numba unavailable: timing the numpy path only\n")

    print(f"kernel benchmark, size {n} ({n * n} elements), best of {args.repeats}\n")
    header = f"{'kernel':<20} {'numpy':>12} {'numba':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, np_fn, nb_fn in cases:
        t_np = time_call(np_fn, args.repeats)
        if nb_fn is None:
            print(f"{name:<20} {t_np * 1e3:>10.3f}ms {'-':>12} {'-':>9}")
            continue
        t_nb = time_call(nb_fn, args.repeats)
        print(
            f"{name:<20} {t_np * 1e3:>10.3f}ms {t_nb * 1e3:>10.3f}ms "
            f"{t_np / t_nb:>8.1f}x"
        )


if __name__ == "__main__":
    main()
