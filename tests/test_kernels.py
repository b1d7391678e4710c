"""The numpy kernels: a pinned prox value and channel-stack calls."""

import numpy as np

from tlf import _kernels as K


def test_prox_half_pinned_value():
    out = K.prox_half(np.array([1.0]), 0.1)
    assert abs(float(out[0]) - 0.9486650001264152) < 1e-12


def test_stack_calls_equal_per_channel_calls(rng):
    x = rng.standard_normal((3, 16, 24))
    kernels = (
        lambda a: K.haar2_forward(a, 3),
        lambda a: K.haar2_inverse(a, 3),
        lambda a: K.smooth_recursive(a, 0.6),
    )
    for kernel in kernels:
        want = np.stack([kernel(x[c]) for c in range(3)])
        assert np.array_equal(kernel(x), want)
