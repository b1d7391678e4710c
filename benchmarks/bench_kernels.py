"""Time the numpy kernels in isolation.

Usage:  python3 benchmarks/bench_kernels.py [--size N] [--repeats R]

Kernels are timed in isolation, so this cannot say where a solve spends its
time. It is a supporting check only; the end-to-end and per-layer benchmark
is ``python3 bench_e2e/run.py --workload ...`` (see bench_e2e/README.md).
"""

import argparse
import sys
import timeit
from pathlib import Path

import numpy as np

# time this checkout's package, not an installed one
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tlf import _kernels as K  # noqa: E402
from tlf.feasibility import FeasibilityModel, solve_G  # noqa: E402
from tlf.tensor import (  # noqa: E402
    BlurKernel, CircularConvolution, ImageTensor, Mask, diff_stencil, inner, irfft2, rfft2,
)


def time_call(fn, repeats):
    best = min(timeit.repeat(fn, number=1, repeat=repeats))
    return best


def subtract(triples):
    for minuend, subtrahend, dst in triples:
        np.subtract(minuend, subtrahend, out=dst)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    n = args.size
    rng = np.random.default_rng(0)
    flat = rng.uniform(-2.0, 2.0, size=n * n)
    img = rng.standard_normal((n, n))
    # one 5-alternation HQS solve of the inpaint feasibility model (CG x-solve)
    mask_model = FeasibilityModel(
        data_op=Mask((rng.uniform(size=(n, n)) > 0.4).astype(float)),
        observation=ImageTensor(img),
        tv_weight=2e-2,
    )
    v = img[None, :, :]
    # one 10-alternation HQS solve of the deblur feasibility model (FFT x-solve)
    conv_model = FeasibilityModel(
        data_op=CircularConvolution(BlurKernel.gaussian(9, 1.5)),
        observation=ImageTensor(img),
        tv_weight=2e-3,
        hqs_iters=10,
    )
    x0 = ImageTensor(img)
    spectrum = rfft2(v)
    # the HQS solve's buffers: its spectrum, which irfft2 uses up, and x
    spectrum_buf = np.empty_like(spectrum)
    image_buf = np.empty_like(v)
    # the wrap-around differences of one HQS alternation, through views made
    # once as the solve makes them: G_h x and G_v x into z, then G_h^T z_h
    # and G_v^T z_v into bz
    z = np.empty((2,) + v.shape)
    bz = np.empty_like(z)
    w_fwd, h_fwd = diff_stencil(v, z[0], -1, True), diff_stencil(v, z[1], -2, True)
    w_bwd, h_bwd = diff_stencil(z[0], bz[0], -1, False), diff_stencil(z[1], bz[1], -2, False)
    subtract(w_fwd + h_fwd)  # z holds finite values before the backward rows run
    # one (3, n, n) pair: above 8192 elements inner sums np.vdot over runs
    pair_a, pair_b = rng.standard_normal((2, 3, n, n))

    cases = [
        ("prox p=1/2", lambda: K.prox_half(flat, 0.1)),
        ("prox p=2/3", lambda: K.prox_twothirds(flat, 0.1)),
        ("haar fwd 3-level", lambda: K.haar2_forward(img, 3)),
        ("haar inv 3-level", lambda: K.haar2_inverse(img, 3)),
        ("lcg gaussian", lambda: K.lcg_gaussian(7, n * n)),
        ("stencil diff w fwd", lambda: subtract(w_fwd)),
        ("stencil diff w bwd", lambda: subtract(w_bwd)),
        ("stencil diff h fwd", lambda: subtract(h_fwd)),
        ("stencil diff h bwd", lambda: subtract(h_bwd)),
        # the two-pass FFT pair every solver uses, against numpy's n-d calls
        ("rfft2 numpy", lambda: np.fft.rfft2(v)),
        ("rfft2 two-pass", lambda: rfft2(v)),
        ("irfft2 numpy", lambda: np.fft.irfft2(spectrum, s=(n, n))),
        ("fft pair buffered", lambda: irfft2(rfft2(v, out=spectrum_buf), n, out=image_buf)),
        ("np.vdot", lambda: np.vdot(pair_a, pair_b)),
        ("inner (runs)", lambda: inner(pair_a, pair_b)),
        ("hqs solve cg", lambda: solve_G(mask_model, x0)),
        ("hqs solve fft", lambda: solve_G(conv_model, x0)),
    ]

    print(f"kernel benchmark, size {n} ({n * n} elements), best of {args.repeats}\n")
    header = f"{'kernel':<20} {'numpy':>12}"
    print(header)
    print("-" * len(header))
    for name, fn in cases:
        print(f"{name:<20} {time_call(fn, args.repeats) * 1e3:>10.3f}ms")


if __name__ == "__main__":
    main()
