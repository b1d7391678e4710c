import numpy as np
import pytest

from tlf.errors import ShapeError, ValidationError
from tlf.tensor import (
    BlurKernel,
    CircularConvolution,
    Composition,
    GradientH,
    GradientV,
    Identity,
    ImageTensor,
    Mask,
    WaveletForward,
    WaveletInverse,
    estimate_lipschitz,
)

from conftest import random_image


def naive_circ_conv(x, taps):
    """Brute-force circular convolution oracle, plain Python loops."""
    h, w = x.shape
    kh, kw = taps.shape
    ch, cw = kh // 2, kw // 2
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    acc += taps[a, b] * x[(i - a + ch) % h, (j - b + cw) % w]
            out[i, j] = acc
    return out


class TestImageTensor:
    def test_rejects_nan(self):
        data = np.zeros((1, 4, 4))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            ImageTensor(data)

    def test_rejects_bad_channels(self):
        with pytest.raises(ShapeError):
            ImageTensor(np.zeros((2, 4, 4)))

    def test_2d_promoted(self):
        img = ImageTensor(np.ones((4, 5)))
        assert img.shape == (1, 4, 5)
        assert img.height == 4 and img.width == 5 and img.channels == 1


class TestBlurKernel:
    def test_normalization(self):
        k = BlurKernel(np.ones((3, 3)))
        assert abs(k.taps.sum() - 1.0) < 1e-12

    def test_even_rejected(self):
        with pytest.raises(ValidationError):
            BlurKernel(np.ones((2, 3)))

    def test_zero_sum_rejected(self):
        with pytest.raises(ValidationError):
            BlurKernel(np.array([[1.0, -1.0, 0.0]]))


class TestApply:
    def test_identity(self, rng):
        x = random_image(rng)
        assert np.array_equal(Identity().apply(x).data, x.data)

    def test_all_ones_mask(self, rng):
        x = random_image(rng)
        m = Mask(np.ones((16, 16)))
        assert np.array_equal(m.apply(x).data, x.data)

    def test_averaging_kernel_on_constant(self):
        x = ImageTensor.full(8, 8, 0.37)
        op = CircularConvolution(BlurKernel(np.ones((3, 3))))
        out = op.apply(x)
        assert np.allclose(out.data, 0.37, atol=1e-12)

    def test_kernel_larger_than_image(self):
        op = CircularConvolution(BlurKernel.gaussian(9, 1.0))
        with pytest.raises(ShapeError):
            op.apply(ImageTensor.zeros(4, 4))

    def test_mask_shape_mismatch(self, rng):
        m = Mask(np.ones((8, 8)))
        with pytest.raises(ShapeError):
            m.apply(random_image(rng, 16, 16))

    def test_fft_matches_naive_conv(self, rng):
        for h, w, ks in ((8, 8, 3), (16, 16, 5), (16, 12, 5)):
            x = rng.standard_normal((h, w))
            taps = rng.standard_normal((ks, ks))
            op = CircularConvolution(BlurKernel(taps, normalize=False))
            got = op.apply(ImageTensor(x)).data[0]
            want = naive_circ_conv(x, op.kernel.taps)
            assert np.abs(got - want).max() <= 1e-10

    def test_conv_three_channels_equal_stacked_channels(self, rng):
        op = CircularConvolution(BlurKernel(rng.standard_normal((5, 3)), normalize=False))
        x = random_image(rng, 12, 16, c=3)
        for method in (op.apply, op.adjoint):
            got = method(x).data
            want = np.stack([method(ImageTensor(x.data[c])).data[0] for c in range(3)])
            assert np.array_equal(got, want)

    def test_direct_kernel_matches_naive(self, rng):
        from tlf._kernels import conv2_circular_direct

        x = rng.standard_normal((11, 13))
        taps = rng.standard_normal((5, 3))
        got = conv2_circular_direct(x, taps)
        assert np.abs(got - naive_circ_conv(x, taps)).max() <= 1e-12


class TestAdjoint:
    @pytest.mark.parametrize(
        "make_op",
        [
            lambda rng: Identity(),
            lambda rng: CircularConvolution(
                BlurKernel(rng.standard_normal((5, 5)), normalize=False)
            ),
            lambda rng: Mask((rng.uniform(size=(16, 16)) > 0.4).astype(float)),
            lambda rng: GradientH(),
            lambda rng: GradientV(),
            lambda rng: WaveletForward(2),
            lambda rng: WaveletInverse(2),
            lambda rng: Composition(
                [
                    WaveletInverse(2),
                    CircularConvolution(
                        BlurKernel(rng.standard_normal((3, 3)), normalize=False)
                    ),
                ]
            ),
        ],
        ids=["identity", "conv", "mask", "grad-h", "grad-v", "dwt", "idwt", "composition"],
    )
    def test_inner_product_identity(self, rng, make_op):
        op = make_op(rng)
        for _ in range(5):
            x = ImageTensor(rng.standard_normal((1, 16, 16)))
            y = ImageTensor(rng.standard_normal((1, 16, 16)))
            ax = op.apply(x)
            aty = op.adjoint(y)
            lhs = float(np.vdot(ax.data, y.data).real)
            rhs = float(np.vdot(x.data, aty.data).real)
            scale = ax.norm() * y.norm() + 1e-30
            assert abs(lhs - rhs) <= 1e-8 * scale

    def test_mask_adjoint_equals_forward(self, rng):
        m = Mask((rng.uniform(size=(8, 8)) > 0.5).astype(float))
        x = random_image(rng, 8, 8)
        assert np.array_equal(m.apply(x).data, m.adjoint(x).data)

    def test_conv_adjoint_is_flipped_kernel(self, rng):
        taps = rng.standard_normal((5, 5))
        op = CircularConvolution(BlurKernel(taps, normalize=False))
        x = rng.standard_normal((12, 12))
        got = op.adjoint(ImageTensor(x)).data[0]
        want = naive_circ_conv(x, op.kernel.taps[::-1, ::-1])
        assert np.abs(got - want).max() <= 1e-10


class TestWavelet:
    def test_constant_image(self):
        levels = 3
        c = 0.3
        out = WaveletForward(levels).apply(ImageTensor.full(16, 16, c)).data[0]
        blk = 16 >> levels
        approx = out[:blk, :blk]
        details = out.copy()
        details[:blk, :blk] = 0.0
        assert np.allclose(approx, c * 2 ** levels, atol=1e-12)
        assert np.abs(details).max() <= 1e-12

    def test_parseval(self, rng):
        x = random_image(rng, 32, 32)
        c = WaveletForward(3).apply(x)
        assert abs(c.norm() - x.norm()) <= 1e-10 * x.norm()

    def test_roundtrip(self, rng):
        x = random_image(rng, 32, 32, c=3)
        back = WaveletInverse(3).apply(WaveletForward(3).apply(x))
        assert np.abs(back.data - x.data).max() <= 1e-10

    def test_divisibility_error(self):
        with pytest.raises(ShapeError):
            WaveletForward(3).apply(ImageTensor.zeros(12, 12))


class TestEstimateLipschitz:
    def test_identity(self):
        assert abs(estimate_lipschitz(Identity(), (8, 8)) - 1.0) <= 1e-12

    def test_scaled_identity(self):
        op = CircularConvolution(BlurKernel(np.array([[2.0]]), normalize=False))
        assert abs(estimate_lipschitz(op, (8, 8)) - 4.0) <= 1e-9

    def test_gaussian_matches_frequency_oracle(self):
        k = BlurKernel.gaussian(9, 1.5)
        op = CircularConvolution(k)
        est = estimate_lipschitz(op, (32, 32), iters=200)
        pad = np.zeros((32, 32))
        pad[:9, :9] = k.taps
        pad = np.roll(pad, (-4, -4), axis=(0, 1))
        want = np.abs(np.fft.fft2(pad)).max() ** 2
        assert 0.0 < est <= 1.0 + 1e-12
        assert abs(est - want) <= 1e-6

    def test_monotone_in_iters(self):
        op = CircularConvolution(BlurKernel.gaussian(5, 1.0))
        history = [estimate_lipschitz(op, (16, 16), iters=k) for k in range(1, 12)]
        for a, b in zip(history, history[1:]):
            assert b >= a - 1e-13

    def test_zero_operator(self):
        assert estimate_lipschitz(Mask(np.zeros((8, 8))), (8, 8)) == 0.0
