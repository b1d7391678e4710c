import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tlf
from tlf.errors import ShapeError, ValidationError
from tlf.tensor import (
    BlurKernel,
    CircularConvolution,
    Identity,
    ImageTensor,
    Mask,
    WaveletForward,
    inner,
    irfft2,
    norm,
    rfft2,
)

from conftest import StencilDiff, estimate_lipschitz, naive_circ_conv, random_image, stencil_diff


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

    @pytest.mark.parametrize("make", [
        lambda rng: ImageTensor(rng.random((3, 4, 8))),
        lambda rng: ImageTensor(rng.random((4, 8)).astype(np.float32)),  # converted copy
        lambda rng: ImageTensor([[0.0, 1.0], [2.0, 3.0]]),
        lambda rng: WaveletForward(2).apply(ImageTensor(rng.random((4, 8)))),
        lambda rng: CircularConvolution(BlurKernel.gaussian(3, 1.0)).adjoint(ImageTensor(rng.random((4, 8)))),
    ], ids=["float64", "float32", "list", "wavelet", "conv-adjoint"])
    def test_data_is_read_only(self, rng, make):
        img = make(rng)
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            np.multiply(img.data, 2.0, out=img.data)

    def test_equal_only_to_itself(self, rng):
        # derain's step reuse keys on ImageTensors with ==
        a = rng.random((1, 4, 4))
        img = ImageTensor(a)
        assert img == img and img != ImageTensor(a) and img != ImageTensor(a.copy())

    def test_caller_array_stays_writeable(self, rng):
        arr = rng.random((1, 4, 4))
        img = ImageTensor(arr)
        assert arr.flags.writeable
        arr[0, 0, 0] = 2.0  # float64 C-order input is not copied: the write shows
        assert img.data[0, 0, 0] == 2.0


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
        x = ImageTensor(np.full((1, 8, 8), 0.37))
        op = CircularConvolution(BlurKernel(np.ones((3, 3))))
        out = op.apply(x)
        assert np.allclose(out.data, 0.37, atol=1e-12)

    def test_kernel_larger_than_image(self):
        op = CircularConvolution(BlurKernel.gaussian(9, 1.0))
        with pytest.raises(ShapeError):
            op.apply(ImageTensor(np.zeros((1, 4, 4))))

    def test_mask_shape_mismatch(self, rng):
        m = Mask(np.ones((8, 8)))
        with pytest.raises(ShapeError):
            m.apply(random_image(rng, 16, 16))

    def test_mask_has_one_channel_or_the_image_count(self, rng):
        one, three = Mask(np.ones((8, 8))), Mask(np.ones((3, 8, 8)))
        assert one.apply(random_image(rng, 8, 8, c=3)).shape == (3, 8, 8)
        assert three.apply(random_image(rng, 8, 8, c=3)).shape == (3, 8, 8)
        with pytest.raises(ShapeError):
            three.apply(random_image(rng, 8, 8))

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


class TestGradientKernels:
    """diff_stencil's view triples write the np.roll differences bit for bit."""

    @staticmethod
    def arrays(rng):
        yield rng.standard_normal((1, 9, 9))
        yield rng.standard_normal((3, 9, 9))
        yield rng.standard_normal((3, 5, 12))  # non-square
        yield rng.standard_normal((3, 1, 7))  # H = 1
        yield rng.standard_normal((1, 7, 1))  # W = 1

    def test_equal_to_roll_differences(self, rng):
        for a in self.arrays(rng):
            before = a.copy()
            for axis in (-1, -2):
                for forward in (True, False):
                    got = stencil_diff(a, np.empty_like(a), axis, forward)
                    assert np.array_equal(got, np.roll(a, -1 if forward else 1, axis=axis) - a)
            assert np.array_equal(a, before)

    def test_out_buffer_fully_written(self, rng):
        for a in self.arrays(rng):
            for axis, shift in ((-1, -1), (-1, 1), (-2, -1), (-2, 1)):
                out = np.full(a.shape, np.nan)
                stencil_diff(a, out, axis, forward=shift == -1)
                assert np.array_equal(out, np.roll(a, shift, axis=axis) - a)


class TestAdjoint:
    @pytest.mark.parametrize(
        "make_op",
        [
            lambda rng: Identity(),
            lambda rng: CircularConvolution(
                BlurKernel(rng.standard_normal((5, 5)), normalize=False)
            ),
            lambda rng: Mask((rng.uniform(size=(16, 16)) > 0.4).astype(float)),
            lambda rng: StencilDiff(-1),
            lambda rng: StencilDiff(-2),
            lambda rng: WaveletForward(2),
        ],
        ids=["identity", "conv", "mask", "grad-h", "grad-v", "dwt"],
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
            scale = norm(ax.data) * norm(y.data) + 1e-30
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
        out = WaveletForward(levels).apply(ImageTensor(np.full((1, 16, 16), c))).data[0]
        blk = 16 >> levels
        approx = out[:blk, :blk]
        details = out.copy()
        details[:blk, :blk] = 0.0
        assert np.allclose(approx, c * 2 ** levels, atol=1e-12)
        assert np.abs(details).max() <= 1e-12

    def test_parseval(self, rng):
        x = random_image(rng, 32, 32)
        c = WaveletForward(3).apply(x)
        assert abs(norm(c.data) - norm(x.data)) <= 1e-10 * norm(x.data)

    def test_roundtrip(self, rng):
        x = random_image(rng, 32, 32, c=3)
        back = WaveletForward(3).adjoint(WaveletForward(3).apply(x))
        assert np.abs(back.data - x.data).max() <= 1e-10

    def test_divisibility_error(self):
        with pytest.raises(ShapeError):
            WaveletForward(3).apply(ImageTensor(np.zeros((1, 12, 12))))


class TestEstimateLipschitz:
    """The power-iteration oracle in conftest, which gives other tests their step sizes."""

    def test_identity(self):
        assert abs(estimate_lipschitz(Identity(), shape=(8, 8)) - 1.0) <= 1e-12

    def test_scaled_identity(self):
        op = CircularConvolution(BlurKernel(np.array([[2.0]]), normalize=False))
        assert abs(estimate_lipschitz(op, shape=(8, 8)) - 4.0) <= 1e-9

    def test_gaussian_matches_frequency_oracle(self):
        k = BlurKernel.gaussian(9, 1.5)
        op = CircularConvolution(k)
        est = estimate_lipschitz(op, shape=(32, 32), iters=200)
        pad = np.zeros((32, 32))
        pad[:9, :9] = k.taps
        pad = np.roll(pad, (-4, -4), axis=(0, 1))
        want = np.abs(np.fft.fft2(pad)).max() ** 2
        assert 0.0 < est <= 1.0 + 1e-12
        assert abs(est - want) <= 1e-6

    def test_monotone_in_iters(self):
        op = CircularConvolution(BlurKernel.gaussian(5, 1.0))
        history = [estimate_lipschitz(op, shape=(16, 16), iters=k) for k in range(1, 12)]
        for a, b in zip(history, history[1:]):
            assert b >= a - 1e-13

    def test_zero_operator(self):
        assert estimate_lipschitz(Mask(np.zeros((8, 8))), shape=(8, 8)) == 0.0


FFT_SHAPES = [(1, 1, 1), (1, 1, 7), (1, 5, 1), (3, 6, 9), (2, 7, 8), (1, 64, 64)]


class TestFftPair:
    @pytest.mark.parametrize("shape", FFT_SHAPES)
    def test_byte_equal_to_numpy(self, rng, shape):
        a = rng.standard_normal(shape)
        want = np.fft.rfft2(a)
        got = rfft2(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", FFT_SHAPES + [(1, 8, 8), (3, 16, 12), (1, 9, 15), (1, 15, 9)])
    def test_out_byte_equal_to_numpy(self, rng, shape):
        a = rng.standard_normal(shape)
        grid = shape[:2] + (shape[2] // 2 + 1,)
        out = np.empty(grid, dtype=complex)
        assert rfft2(a, out=out) is out
        assert out.tobytes() == np.fft.rfft2(a).tobytes()
        # the solvers invert products and quotients of spectra, which are
        # not exactly Hermitian; so is this one
        spectrum = out * (rng.standard_normal(grid) + 1j * rng.standard_normal(grid))
        want = np.fft.irfft2(spectrum, s=shape[1:])
        image = np.empty(shape)
        assert irfft2(spectrum, shape[2], out=image) is image
        assert image.tobytes() == want.tobytes()


# One deblur TLF solve at 128x128, whose wavelet codes (16384 elements) are
# larger than one run of ``inner``, and one inner product at 3x256x256.
THREAD_PROBE = """
import hashlib
import numpy as np
from tlf import engine, fixtures, tasks, tensor
gt, kernel, blurry = fixtures.deblur_fixture(seed=42, size=128)
prob, feas = tasks.build_deblur(blurry, kernel, **fixtures.DEBLUR_WEIGHTS)
x, trace = engine.tlf_solve(prob, feas, fixtures.deblur_params(max_iters=10), ground_truth=gt)
a, b = np.random.default_rng(3).standard_normal((2, 3, 256, 256))
print(trace.to_csv())
print(hashlib.sha256(prob.to_image(x).data.tobytes()).hexdigest())
print(tensor.inner(a, b).hex())
"""

# BLAS reductions; only tensor.inner may call one
REDUCTIONS = {"np.vdot", "np.dot", "np.inner", "np.matmul", "np.tensordot", "np.linalg.norm"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).replace("numpy.", "np.", 1)


def _reductions(path):
    """file:line of every BLAS reduction in ``path`` outside tensor.inner."""
    tree = ast.parse(path.read_text(), str(path))
    exempt = {
        id(n) for f in tree.body
        if path.name == "tensor.py" and isinstance(f, ast.FunctionDef) and f.name == "inner"
        for n in ast.walk(f)
    }
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            bad = _dotted(node.func) in REDUCTIONS or node.func.attr == "dot"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            bad = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            bad = any(f"{node.module}.{a.name}".replace("numpy", "np", 1) in REDUCTIONS for a in node.names)
        else:
            continue
        if bad:
            yield f"{path.name}:{node.lineno}"


class TestInner:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 64, 64), (2, 64, 64), (1, 1, 8192)])
    def test_one_run_is_one_vdot(self, rng, shape):
        a, b = rng.standard_normal((2,) + shape)
        assert inner(a, b) == float(np.vdot(a, b))
        assert norm(a) == float(np.linalg.norm(a))

    @pytest.mark.parametrize("shape", [(1, 1, 8193), (1, 128, 128), (3, 100, 99)])
    def test_runs_summed_in_order(self, rng, shape):
        a, b = rng.standard_normal((2,) + shape)
        flat_a, flat_b = a.reshape(-1), b.reshape(-1)
        want = 0.0
        for start in range(0, a.size, 8192):
            want += float(np.vdot(flat_a[start:start + 8192], flat_b[start:start + 8192]))
        assert inner(a, b) == want
        assert abs(inner(a, b) - float(np.vdot(a, b))) <= 1e-12 * norm(a) * norm(b)

    def test_independent_of_blas_thread_count(self):
        src = str(Path(tlf.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_only_inner_reduces(self):
        package = Path(tlf.__file__).resolve().parent
        found = [site for path in sorted(package.glob("*.py")) for site in _reductions(path)]
        assert not found, "BLAS reduction outside tensor.inner at " + ", ".join(found)
