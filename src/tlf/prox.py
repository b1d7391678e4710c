"""Closed-form proximal operators: elementwise lp thresholding, box projection.

prox_lp solves, per element,

    min_u  tau * |u|^p + (u - v)^2 / 2

for p in {0, 1/2, 2/3, 1}.  The nonconvex exponents use the published
half / two-thirds thresholding root formulas followed by an explicit
objective comparison against u = 0, so ties at the threshold land on 0.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError
from .tensor import ImageTensor

SUPPORTED_P = (0.0, 0.5, 2.0 / 3.0, 1.0)


def canonical_p(p, key="p") -> float:
    """Snap an exponent to the supported set, rejecting anything else; the
    error names the exponent's config ``key``."""
    for cand in SUPPORTED_P:
        if abs(float(p) - cand) <= 1e-12:
            return cand
    raise ConfigError(f"unsupported exponent {key}={p}; closed forms exist for {SUPPORTED_P}")


@dataclass(frozen=True)
class ProxSpec:
    """Exponent p and threshold weight tau for lp thresholding."""

    p: float
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "p", canonical_p(self.p))
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ConfigError(f"tau must be finite and >= 0, got {self.tau}")

    def scaled(self, factor: float) -> "ProxSpec":
        return ProxSpec(self.p, self.tau * factor)


def prox_lp_array(v: np.ndarray, spec: ProxSpec, out=None, scratch=None) -> np.ndarray:
    """Elementwise lp thresholding of an array.

    ``out``, when given, receives the result and is returned; it may be ``v``
    itself. Its bytes equal the allocating call's, signed zeros included.
    ``scratch``, an array of v's shape that is neither v nor out, saves the
    p = 1 path its sign temporary.
    """
    if spec.tau == 0.0:
        res = np.array(v, dtype=np.float64, copy=True)
    elif spec.p == 1.0:
        # sign(v) * max(|v| - tau, 0), the magnitude kept in out. The sign
        # goes to scratch: numpy 2.4's np.sign writing over its own input
        # runs 3-5x slower than into another array.
        sign = np.sign(v, out=scratch)
        mag = np.subtract(np.abs(v, out=out), spec.tau, out=out)
        np.maximum(mag, 0.0, out=mag)
        return np.multiply(sign, mag, out=mag)
    elif spec.p == 0.0:
        res = np.where(np.abs(v) > np.sqrt(2.0 * spec.tau), v, 0.0)
    elif spec.p == 0.5:
        res = _kernels.prox_half(v, spec.tau)
    else:
        res = _kernels.prox_twothirds(v, spec.tau)
    if out is None:
        return res
    np.copyto(out, res)
    return out


def prox_lp(v: ImageTensor, spec: ProxSpec) -> ImageTensor:
    return ImageTensor(prox_lp_array(v.data, spec))


def lp_penalty(v: np.ndarray, p: float) -> float:
    """Sum_i |v_i|^p with the 0^0 = 0 convention for p = 0."""
    p = canonical_p(p)
    if p == 0.0:
        return float(np.count_nonzero(v))
    if p == 1.0:
        return float(np.abs(v).sum())
    return float((np.abs(v) ** p).sum())


def project_box01(v: ImageTensor) -> ImageTensor:
    return ImageTensor(np.clip(v.data, 0.0, 1.0))
