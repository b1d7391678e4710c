"""Restoration quality metrics on peak-1.0 images: PSNR and SSIM."""

import numpy as np

from .errors import ShapeError, ValidationError
from .tensor import BlurKernel, ImageTensor

PSNR_CAP = 100.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(x: ImageTensor, ref: ImageTensor, mask=None) -> float:
    """10*log10(1/MSE) in dB, capped at 100; optional binary region mask."""
    if x.shape != ref.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {ref.shape}")
    diff = (x.data - ref.data) ** 2
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), diff.shape)
        if not m.any():
            raise ValidationError("psnr mask selects no pixels")
        mse = float(diff[m].mean())
    else:
        mse = float(diff.mean())
    if mse <= 0.0:
        return PSNR_CAP
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP)


def require_ssim_size(img: ImageTensor, name: str = "image") -> ImageTensor:
    """``img``, after checking that it covers the SSIM window (ValidationError)."""
    if img.height < SSIM_WINDOW or img.width < SSIM_WINDOW:
        raise ValidationError(
            f"{name} {img.height}x{img.width} smaller than {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
        )
    return img


def _to_gray(img: ImageTensor) -> np.ndarray:
    return img.data.mean(axis=0)


def _windowed_mean(a, win):
    view = np.lib.stride_tricks.sliding_window_view(a, win.shape)
    return np.einsum("ijkl,kl->ij", view, win)


def ssim(x: ImageTensor, ref: ImageTensor) -> float:
    """Mean local SSIM, 11x11 Gaussian window sigma=1.5, K1=.01, K2=.03, L=1.

    Color images are reduced to the channel-average luminance first.
    """
    if x.shape != ref.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {ref.shape}")
    require_ssim_size(x)
    a = _to_gray(x)
    b = _to_gray(ref)
    win = BlurKernel.gaussian(SSIM_WINDOW, SSIM_SIGMA).taps
    mu_a = _windowed_mean(a, win)
    mu_b = _windowed_mean(b, win)
    var_a = _windowed_mean(a * a, win) - mu_a ** 2
    var_b = _windowed_mean(b * b, win) - mu_b ** 2
    cov = _windowed_mean(a * b, win) - mu_a * mu_b
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())
