"""Dense image tensors and the linear operators the solvers are built from.

Images are stored channel-planar: ``data`` has shape (channels, height,
width), float64, C-order, so tobytes() gives the row-major planar layout the
file formats and the denoiser wire protocol use.  Convolutions and the
wrap-around differences of ``diff_stencil`` use circular (periodic)
boundaries, which keeps them circulant per channel and FFT-diagonalizable.
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


@dataclass(frozen=True, eq=False)
class ImageTensor:
    """Channel-planar image or coefficient array with finite entries.

    ``data`` is a read-only view and ``==`` is identity, so work may be keyed
    on an ImageTensor. A float64 C-contiguous input is not copied: the
    caller's own array stays writeable, and writes to it still show.
    """

    data: np.ndarray

    def __post_init__(self):
        a = _as_planar(self.data)
        if a.shape[0] not in (1, 3):
            raise ShapeError(f"channels must be 1 or 3, got {a.shape[0]}")
        if a.shape[1] < 1 or a.shape[2] < 1:
            raise ShapeError(f"empty image shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValidationError("image contains NaN or Inf")
        a = a.view()
        a.flags.writeable = False
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


def rfft2(a, out=None):
    """``np.fft.rfft2(a)``, bit for bit, over the last two axes.

    numpy's rfftn makes exactly these two 1-D calls; calling them directly
    skips its per-call n-d argument handling. With ``out`` (complex, the
    rfft grid's shape) both passes write into it, the second in place.
    """
    return np.fft.fft(np.fft.rfft(a, axis=-1, out=out), axis=-2, out=out)


def irfft2(spectrum, width, out=None):
    """``np.fft.irfft2(spectrum, s=(height, width))``, bit for bit: the two
    1-D calls numpy's irfftn makes, without its argument handling.

    With ``out`` (real, the image's shape) the column pass runs in place on
    ``spectrum``, which it uses up, and the row pass writes into ``out``.
    Without it, ``spectrum`` is left as it was.
    """
    columns = np.fft.ifft(spectrum, axis=-2, out=None if out is None else spectrum)
    return np.fft.irfft(columns, n=width, axis=-1, out=out)


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

    def gram_diagonal(self):
        """diag(A^T A), broadcastable to the image shape; None when unknown."""
        return None

    def gram_spectrum(self, height, width):
        """|A^|^2 on the rfft grid of an HxW image if A is circulant per channel, else None."""
        return None

    def _gram(self, a, out):
        """Write A^T A a into ``out``."""
        # A^T A a may be a itself (Identity): copy it, never write into it.
        np.copyto(out, self._adjoint(self._apply(a)))

    def apply(self, x: ImageTensor) -> ImageTensor:
        return ImageTensor(self._apply(self._check(x.data)))

    def adjoint(self, y: ImageTensor) -> ImageTensor:
        return ImageTensor(self._adjoint(self._check(y.data)))


class Identity(LinearOperator):
    def gram_spectrum(self, height, width):
        return 1.0

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
            resp = rfft2(pad)
            pair = (resp, np.conj(resp))
            self._freq_cache[key] = pair
        return pair

    def gram_spectrum(self, height, width):
        return np.abs(self._responses(height, width)[0]) ** 2

    def _conv(self, a, conjugate):
        resp = self._responses(a.shape[1], a.shape[2])[conjugate]
        # One transform over the last two axes covers every channel. The FFTs
        # stay on numpy.fft: scipy.fft was faster at 256x256 but raised peak
        # RSS by half and doubled import-inclusive set-up time. rfft2 and
        # irfft2 are this module's globals, looked up at call time, so a
        # wrapper set on tlf.tensor.rfft2 or irfft2 sees every FFT here.
        # The product and irfft2's column pass reuse the spectrum in place.
        spectrum = rfft2(a)
        spectrum *= resp
        return irfft2(spectrum, a.shape[2], out=np.empty(a.shape))

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
        if a.shape[1:] != self.mask.shape[1:] or self.mask.shape[0] not in (1, a.shape[0]):
            raise ShapeError(f"mask {self.mask.shape} vs image {a.shape}")
        return a

    def gram_diagonal(self):
        return self.mask

    def _gram(self, a, out):
        # one product: for a 0/1 mask, a*m equals (a*m)*m bit for bit,
        # signed zeros included
        np.multiply(a, self.mask, out=out)

    def _apply(self, a):
        return a * self.mask

    def _adjoint(self, a):
        return a * self.mask


def diff_stencil(a, out, axis, forward):
    """The two (minuend, subtrahend, destination) view triples of a
    wrap-around difference along ``axis`` (-1: width, -2: height).

    Subtracting each triple in order writes ``np.roll(a, -1 if forward
    else 1, axis) - a`` into ``out``: every element is the same single
    subtraction the roll form makes, so the two agree bit for bit. Both
    arrays must be C-contiguous, of one shape, and not the same array. A
    caller that differences the same arrays many times makes the views once.
    """
    # forward: out[i] = a[i+1] - a[i]; backward: out[i] = a[i-1] - a[i]
    if forward:
        dst, src, edge, wrap = slice(None, -1), slice(1, None), -1, 0
    else:
        dst, src, edge, wrap = slice(1, None), slice(None, -1), 0, -1
    if axis == -2:
        return (
            (a[..., src, :], a[..., dst, :], out[..., dst, :]),
            (a[..., wrap, :], a[..., edge, :], out[..., edge, :]),
        )
    # A last-axis slice subtraction writes a strided output, which is slower
    # than np.roll at 256x256. One pass over the flat view instead; it gets
    # the wrapped column wrong, so the second triple redoes that column.
    flat_a, flat_out = a.reshape(-1), out.reshape(-1)
    return (
        (flat_a[src], flat_a[dst], flat_out[dst]),
        (a[..., wrap], a[..., edge], out[..., edge]),
    )


DEFAULT_LEVELS = 3


class WaveletForward(LinearOperator):
    """Orthonormal multi-level 2D Haar analysis, per channel."""

    def __init__(self, levels=DEFAULT_LEVELS):
        if not levels >= 1:
            raise ConfigError(f"levels must be >= 1, got {levels}")
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
