"""Dense image tensors and the linear operators the solvers are built from.

Images are stored channel-planar: ``data`` has shape (channels, height,
width), float64, C-order, so tobytes() gives the row-major planar layout the
file formats and the denoiser wire protocol use.  Convolutions and gradients
use circular (periodic) boundaries throughout, which keeps every operator
here circulant per channel and FFT-diagonalizable.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, ShapeError, ValidationError


def _as_planar(arr):
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 2:
        a = a[None, :, :]
    if a.ndim != 3:
        raise ShapeError(f"expected 2D or 3D array, got ndim={a.ndim}")
    return np.ascontiguousarray(a)


@dataclass(frozen=True)
class ImageTensor:
    """Channel-planar image or coefficient array with finite entries."""

    data: np.ndarray

    def __post_init__(self):
        a = _as_planar(self.data)
        if a.shape[0] not in (1, 3):
            raise ShapeError(f"channels must be 1 or 3, got {a.shape[0]}")
        if a.shape[1] < 1 or a.shape[2] < 1:
            raise ShapeError(f"empty image shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValidationError("image contains NaN or Inf")
        object.__setattr__(self, "data", a)

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def height(self):
        return self.data.shape[1]

    @property
    def width(self):
        return self.data.shape[2]

    @property
    def shape(self):
        return self.data.shape

    @classmethod
    def zeros(cls, height, width, channels=1):
        return cls(np.zeros((channels, height, width)))

    @classmethod
    def full(cls, height, width, value, channels=1):
        return cls(np.full((channels, height, width), float(value)))

    def __array__(self, dtype=None):
        return self.data if dtype is None else self.data.astype(dtype)

    def norm(self):
        return float(np.linalg.norm(self.data))


@dataclass(frozen=True)
class BlurKernel:
    """Small convolution kernel; taps normalized to sum 1 unless disabled."""

    taps: np.ndarray
    normalize: bool = True

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.taps, dtype=np.float64))
        if t.ndim != 2:
            raise ShapeError("kernel taps must be 2D")
        kh, kw = t.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValidationError(f"kernel dims must be odd, got {kh}x{kw}")
        if not np.isfinite(t).all():
            raise ValidationError("kernel contains NaN or Inf")
        if self.normalize:
            s = t.sum()
            if abs(s) < 1e-12:
                raise ValidationError("kernel taps sum to zero, cannot normalize")
            t = t / s
        object.__setattr__(self, "taps", t)

    @property
    def size(self):
        return self.taps.shape

    @classmethod
    def delta(cls):
        return cls(np.ones((1, 1)))

    @classmethod
    def gaussian(cls, size, sigma):
        if size % 2 == 0:
            raise ValidationError("gaussian kernel size must be odd")
        r = np.arange(size) - size // 2
        g = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * sigma ** 2))
        return cls(g)

    @classmethod
    def motion_line(cls, length, angle_deg):
        """Thin oriented line kernel (streak / motion blur)."""
        size = length if length % 2 == 1 else length + 1
        taps = np.zeros((size, size))
        c = size // 2
        ang = np.deg2rad(angle_deg)
        for t in np.linspace(-length / 2.0, length / 2.0, 4 * size):
            i = int(round(c + t * np.sin(ang)))
            j = int(round(c + t * np.cos(ang)))
            if 0 <= i < size and 0 <= j < size:
                taps[i, j] = 1.0
        return cls(taps)


class LinearOperator:
    """Forward/adjoint map on channel-planar images.

    Subclasses implement ``_apply`` / ``_adjoint`` on raw (C, H, W) arrays;
    the public methods validate shapes and keep ImageTensor in/out.
    """

    def _apply(self, a):
        raise NotImplementedError

    def _adjoint(self, a):
        raise NotImplementedError

    def _check(self, a):
        return a

    def apply(self, x: ImageTensor) -> ImageTensor:
        return ImageTensor(self._apply(self._check(x.data)))

    def adjoint(self, y: ImageTensor) -> ImageTensor:
        return ImageTensor(self._adjoint(self._check(y.data)))


class Identity(LinearOperator):
    def _apply(self, a):
        return a

    def _adjoint(self, a):
        return a


class CircularConvolution(LinearOperator):
    """Per-channel circular convolution with a centered kernel."""

    def __init__(self, kernel: BlurKernel):
        self.kernel = kernel
        self._freq_cache = {}  # (height, width) -> (response, conjugate)

    def _responses(self, height, width):
        key = (height, width)
        pair = self._freq_cache.get(key)
        if pair is None:
            kh, kw = self.kernel.size
            if kh > height or kw > width:
                raise ShapeError(
                    f"kernel {kh}x{kw} larger than image {height}x{width}"
                )
            pad = np.zeros((height, width))
            pad[:kh, :kw] = self.kernel.taps
            pad = np.roll(pad, (-(kh // 2), -(kw // 2)), axis=(0, 1))
            resp = np.fft.rfft2(pad)
            pair = (resp, np.conj(resp))
            self._freq_cache[key] = pair
        return pair

    def frequency_response(self, height, width):
        """rfft2 of the kernel embedded at the origin of an HxW grid."""
        return self._responses(height, width)[0]

    def _conv(self, a, conjugate):
        resp = self._responses(a.shape[1], a.shape[2])[conjugate]
        # One transform over the last two axes covers every channel. The FFTs
        # stay on numpy.fft: scipy.fft was faster at 256x256 but raised peak
        # RSS by half and doubled import-inclusive set-up time. They are looked
        # up at call time so that wrappers installed on numpy.fft see them.
        return np.fft.irfft2(np.fft.rfft2(a) * resp, s=a.shape[1:])

    def _apply(self, a):
        return self._conv(a, conjugate=False)

    def _adjoint(self, a):
        # correlation = convolution with the flipped kernel
        return self._conv(a, conjugate=True)


class Mask(LinearOperator):
    """Diagonal binary sampling operator (self-adjoint)."""

    def __init__(self, mask):
        m = np.asarray(mask, dtype=np.float64)
        if m.ndim == 2:
            m = m[None, :, :]
        if not np.isin(m, (0.0, 1.0)).all():
            raise ValidationError("mask must be binary (0/1)")
        self.mask = m

    def _check(self, a):
        if a.shape[1:] != self.mask.shape[1:]:
            raise ShapeError(f"mask {self.mask.shape} vs image {a.shape}")
        return a

    def _apply(self, a):
        return a * self.mask

    def _adjoint(self, a):
        return a * self.mask


class GradientH(LinearOperator):
    """Forward difference along width with wrap-around."""

    def _apply(self, a):
        return np.roll(a, -1, axis=2) - a

    def _adjoint(self, a):
        return np.roll(a, 1, axis=2) - a


class GradientV(LinearOperator):
    """Forward difference along height with wrap-around."""

    def _apply(self, a):
        return np.roll(a, -1, axis=1) - a

    def _adjoint(self, a):
        return np.roll(a, 1, axis=1) - a


class WaveletForward(LinearOperator):
    """Orthonormal multi-level 2D Haar analysis, per channel."""

    def __init__(self, levels=3):
        if levels < 1:
            raise ConfigError("levels must be >= 1")
        self.levels = levels

    def _check(self, a):
        d = 1 << self.levels
        if a.shape[1] % d or a.shape[2] % d:
            raise ShapeError(
                f"image {a.shape[1]}x{a.shape[2]} not divisible by 2^{self.levels}"
            )
        return a

    def _apply(self, a):
        return _kernels.haar2_forward(a, self.levels)

    def _adjoint(self, a):
        return _kernels.haar2_inverse(a, self.levels)


class WaveletInverse(LinearOperator):
    """Orthonormal multi-level 2D Haar synthesis (adjoint of the analysis)."""

    def __init__(self, levels=3):
        self._fwd = WaveletForward(levels)
        self.levels = levels

    def _check(self, a):
        return self._fwd._check(a)

    def _apply(self, a):
        return self._fwd._adjoint(a)

    def _adjoint(self, a):
        return self._fwd._apply(a)


class Composition(LinearOperator):
    """Apply operators left to right; adjoint runs them reversed."""

    def __init__(self, ops):
        if not ops:
            raise ConfigError("composition needs at least one operator")
        self.ops = tuple(ops)

    def _apply(self, a):
        for op in self.ops:
            a = op._apply(op._check(a))
        return a

    def _adjoint(self, a):
        for op in reversed(self.ops):
            a = op._adjoint(op._check(a))
        return a


def estimate_lipschitz(op: LinearOperator, shape, iters=50) -> float:
    """Power-iteration estimate of ||A^T A||_2 on images of the given shape.

    Deterministic start vector so the step sizes derived from it are
    reproducible.  Nondecreasing in ``iters`` (Rayleigh quotients of a PSD
    map under power iteration).
    """
    if iters < 1:
        raise ConfigError("iters must be >= 1")
    if len(shape) == 2:
        shape = (1,) + tuple(shape)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(shape)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = op._adjoint(op._apply(v))
        n = float(np.linalg.norm(w))
        if n == 0.0:
            return 0.0
        est = n
        v = w / n
    return est
