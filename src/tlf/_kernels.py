"""Hot numeric kernels in numpy, one implementation per operation.

The image kernels (Haar analysis and synthesis) act on the last two axes, so
one call covers a whole ``(C, H, W)`` channel stack.
"""

import math

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
_U64_MASK = (1 << 64) - 1
_TO_UNIT = 2.0 ** -53


# ---------------------------------------------------------------------------
# lp thresholding, p = 1/2  (largest root of w^3 - m*w + tau/2 = 0, w = sqrt(u))
# ---------------------------------------------------------------------------

def prox_half(v, tau):
    m = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = -(3.0 * math.sqrt(3.0) / 4.0) * tau * m ** -1.5
    theta = np.arccos(np.clip(arg, -1.0, 1.0))
    u = (2.0 / 3.0) * m * (1.0 + np.cos((2.0 / 3.0) * theta))
    # keep the stationary point only where it strictly beats 0 (ties -> 0)
    better = tau * np.sqrt(np.maximum(u, 0.0)) + 0.5 * (u - m) ** 2 < 0.5 * m * m
    return np.where((m > 0.0) & better, np.sign(v) * u, 0.0)


# ---------------------------------------------------------------------------
# lp thresholding, p = 2/3  (quartic w^4 - m*w + 2*tau/3 = 0 via resolvent cubic)
# ---------------------------------------------------------------------------

def prox_twothirds(v, tau):
    m = np.abs(v)
    p = -8.0 * tau / 3.0  # resolvent cubic: s^3 + p*s - m^2 = 0
    disc = -4.0 * p ** 3 - 27.0 * m ** 4
    # three-real-roots branch (largest root via the trigonometric formula)
    with np.errstate(divide="ignore", invalid="ignore"):
        trig_arg = np.clip(-3.0 * m * m / (2.0 * p) * math.sqrt(-3.0 / p), -1.0, 1.0)
        s_trig = 2.0 * math.sqrt(-p / 3.0) * np.cos(np.arccos(trig_arg) / 3.0)
    # single-real-root branch (Cardano)
    rad = np.sqrt(np.maximum(m ** 4 / 4.0 + p ** 3 / 27.0, 0.0))
    s_card = np.cbrt(m * m / 2.0 + rad) + np.cbrt(m * m / 2.0 - rad)
    s = np.where(disc >= 0.0, s_trig, s_card)
    a = np.sqrt(np.maximum(s, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = 2.0 * m / a - a * a
    valid = (m > 0.0) & (a > 0.0) & (quad >= 0.0)
    w = 0.5 * (a + np.sqrt(np.where(valid, quad, 0.0)))
    u = w ** 3
    better = tau * w * w + 0.5 * (u - m) ** 2 < 0.5 * m * m
    return np.where(valid & better, np.sign(v) * u, 0.0)


# ---------------------------------------------------------------------------
# orthonormal 2D Haar transform (multi-level, Mallat layout, in-place on copy)
# ---------------------------------------------------------------------------

def haar2_forward(x, levels):
    out = x.astype(np.float64, copy=True)
    h, w = out.shape[-2:]
    for _ in range(levels):
        blk = out[..., :h, :w]
        lo = (blk[..., :, 0::2] + blk[..., :, 1::2]) * _INV_SQRT2
        hi = (blk[..., :, 0::2] - blk[..., :, 1::2]) * _INV_SQRT2
        ll = (lo[..., 0::2, :] + lo[..., 1::2, :]) * _INV_SQRT2
        vl = (lo[..., 0::2, :] - lo[..., 1::2, :]) * _INV_SQRT2
        lh = (hi[..., 0::2, :] + hi[..., 1::2, :]) * _INV_SQRT2
        hh = (hi[..., 0::2, :] - hi[..., 1::2, :]) * _INV_SQRT2
        h2, w2 = h // 2, w // 2
        out[..., :h2, :w2] = ll
        out[..., :h2, w2:w] = lh
        out[..., h2:h, :w2] = vl
        out[..., h2:h, w2:w] = hh
        h, w = h2, w2
    return out


def haar2_inverse(c, levels):
    out = c.astype(np.float64, copy=True)
    lead = out.shape[:-2]
    h0, w0 = out.shape[-2:]
    sizes = [(h0 >> k, w0 >> k) for k in range(levels)]
    for h, w in reversed(sizes):
        h2, w2 = h // 2, w // 2
        ll = out[..., :h2, :w2]
        lh = out[..., :h2, w2:w]
        vl = out[..., h2:h, :w2]
        hh = out[..., h2:h, w2:w]
        lo = np.empty(lead + (h, w2))
        hi = np.empty(lead + (h, w2))
        lo[..., 0::2, :] = (ll + vl) * _INV_SQRT2
        lo[..., 1::2, :] = (ll - vl) * _INV_SQRT2
        hi[..., 0::2, :] = (lh + hh) * _INV_SQRT2
        hi[..., 1::2, :] = (lh - hh) * _INV_SQRT2
        blk = np.empty(lead + (h, w))
        blk[..., :, 0::2] = (lo + hi) * _INV_SQRT2
        blk[..., :, 1::2] = (lo - hi) * _INV_SQRT2
        out[..., :h, :w] = blk
    return out


# ---------------------------------------------------------------------------
# seeded Gaussian noise: 64-bit LCG + Box-Muller (reproducible across builds)
# ---------------------------------------------------------------------------

def lcg_gaussian(seed, n):
    out = np.empty(n, dtype=np.float64)
    state = seed & _U64_MASK
    i = 0
    while i < n:
        state = (LCG_MULT * state + LCG_INC) & _U64_MASK
        u1 = ((state >> 11) + 1) * _TO_UNIT  # (0, 1]
        state = (LCG_MULT * state + LCG_INC) & _U64_MASK
        u2 = (state >> 11) * _TO_UNIT  # [0, 1)
        r = math.sqrt(-2.0 * math.log(u1))
        ang = 2.0 * math.pi * u2
        out[i] = r * math.cos(ang)
        i += 1
        if i < n:
            out[i] = r * math.sin(ang)
            i += 1
    return out
