"""Half-quadratic splitting solver for the TV-regularized feasibility model

    min_x 0.5*||Kx - b||^2 + lambda2 * sum_j ||grad_j x||_q      (j in {h, v})

optionally anchored by a proximal term (mu/2)*||x - x_tilde||^2.  Each
alternation thresholds the gradient surrogates z_j elementwise and then
solves the quadratic x-subproblem

    (K^T K + sum_j 2*rho_j grad_j^T grad_j + mu*I) x
        = K^T b + sum_j 2*rho_j grad_j^T z_j + mu*x_tilde

exactly in the frequency domain when K is circulant, or by warm-started
conjugate gradient otherwise (mask operators for inpainting).
"""

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, ValidationError
from .prox import ProxSpec, lp_penalty, prox_lp_array
from .tensor import (
    CircularConvolution,
    GradientH,
    GradientV,
    Identity,
    ImageTensor,
    LinearOperator,
    wrap_diff,
)

_GH = GradientH()
_GV = GradientV()


def _is_circulant(op: LinearOperator) -> bool:
    return isinstance(op, (Identity, CircularConvolution))


@dataclass(frozen=True)
class FeasibilityModel:
    data_op: LinearOperator
    observation: ImageTensor
    tv_weight: float
    tv_q: float = 1.0
    hqs_rho: tuple = (0.05, 0.05)
    hqs_iters: int = 5
    x_solver: str = "fft"
    cg_tol: float = 1e-8
    cg_max_iters: int = 2000
    anchor: tuple | None = None  # (ImageTensor x_tilde, float mu)
    # Loop-invariant terms of the x-subproblem, computed once per model:
    # K^T b, and for the FFT solver the anchor-free Fourier denominator
    # |K^|^2 + 2 rho_h |g_h^|^2 + 2 rho_v |g_v^|^2 on the rfft grid.
    ktb: np.ndarray = field(init=False, repr=False, compare=False)
    fft_base: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tv_weight < 0:
            raise ConfigError("tv_weight must be >= 0")
        ProxSpec(self.tv_q, 0.0)  # validates the exponent
        rh, rv = self.hqs_rho
        if rh <= 0 or rv <= 0:
            raise ConfigError("hqs_rho entries must be > 0")
        if self.hqs_iters < 1:
            raise ConfigError("hqs_iters must be >= 1")
        if self.x_solver not in ("fft", "cg"):
            raise ConfigError(f"unknown x_solver {self.x_solver!r}")
        if self.x_solver == "fft" and not _is_circulant(self.data_op):
            raise ConfigError("fft x-solver requires a circulant data operator")
        if not (math.isfinite(self.cg_tol) and self.cg_tol > 0):
            raise ConfigError(f"cg_tol must be finite and > 0, got {self.cg_tol!r}")
        if self.cg_max_iters < 1:
            raise ConfigError("cg_max_iters must be >= 1")
        self._check_anchor()
        object.__setattr__(self, "ktb", self.data_op._adjoint(self.observation.data))
        object.__setattr__(self, "fft_base", _fft_base(self) if self.x_solver == "fft" else None)

    def _check_anchor(self):
        if self.anchor is not None:
            x_tilde, mu = self.anchor
            if mu < 0:
                raise ConfigError("anchor mu must be >= 0")
            if x_tilde.shape != self.observation.shape:
                raise ConfigError("anchor shape differs from observation")

    def with_anchor(self, x_tilde: ImageTensor, mu: float) -> "FeasibilityModel":
        """Anchored copy. The anchor enters neither K^T b nor the base
        denominator, so the copy shares both with this model."""
        model = copy.copy(self)
        object.__setattr__(model, "anchor", (x_tilde, mu))
        model._check_anchor()
        return model


def _grad_freq_sq(height, width):
    """|FFT response|^2 of the wrap-around forward differences (rfft grid)."""
    gh = 4.0 * np.sin(np.pi * np.fft.rfftfreq(width)) ** 2
    gv = 4.0 * np.sin(np.pi * np.fft.fftfreq(height)) ** 2
    return gv[:, None], gh[None, :]


def _fft_base(model):
    h, w = model.observation.height, model.observation.width
    rh, rv = model.hqs_rho
    gv2, gh2 = _grad_freq_sq(h, w)
    if isinstance(model.data_op, CircularConvolution):
        k2 = np.abs(model.data_op.frequency_response(h, w)) ** 2
    else:
        k2 = 1.0
    return k2 + 2.0 * rh * gh2 + 2.0 * rv * gv2


def _fft_solve(model, rhs, mu):
    # Every channel in one call, on numpy.fft looked up at call time; why not
    # scipy.fft is noted at CircularConvolution._conv.
    return np.fft.irfft2(np.fft.rfft2(rhs) / (model.fft_base + mu), s=rhs.shape[1:])


def _cg_solve(matvec, rhs, x0, tol, max_iters):
    """Warm-started CG on matvec(x) = rhs, to relative residual ``tol``.

    ``matvec`` may return the same buffer on every call, so its result is
    used up before the next call. x, r and p are updated in place.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    x = x0.copy()
    r = rhs - matvec(x)
    p = r.copy()
    tmp = np.empty_like(r)
    rs = float(np.vdot(r, r).real)
    for it in range(max_iters):
        if np.sqrt(rs) <= 0.5 * tol * rhs_norm:
            break
        ap = matvec(p)
        pap = float(np.vdot(p, ap).real)
        if pap <= 0.0:
            break
        a = rs / pap
        np.multiply(p, a, out=tmp)
        x += tmp
        np.multiply(ap, a, out=tmp)
        r -= tmp
        rs_new = float(np.vdot(r, r).real)
        p *= rs_new / rs
        np.add(r, p, out=p)
        rs = rs_new
    true_res = float(np.linalg.norm(rhs - matvec(x))) / rhs_norm
    if not true_res <= tol:  # a NaN residual is a stall too
        raise NumericalError(
            f"CG stalled at relative residual {true_res:.3e} > {tol:.3e}",
            residual=true_res,
        )
    return x


def _normal_operator(model, mu):
    """v -> (K^T K + 2 rho_h G_h^T G_h + 2 rho_v G_v^T G_v + mu I) v for CG.

    Each element goes through the same IEEE operations, in the same order, as
    composing the operators, so CG iterates do not change. The buffers belong
    to the returned function; it returns the same one on every call. Build one
    per solve: threads may share a model.
    """
    k_op = model.data_op
    rh, rv = model.hqs_rho
    tv_terms = ((-1, 2.0 * rh), (-2, 2.0 * rv))  # (axis, weight): G_h, then G_v
    out, g, gg = (np.empty(model.observation.shape) for _ in range(3))

    def matvec(v):
        # K^T K v may be v itself (Identity): copy it, never add into it.
        np.copyto(out, k_op._adjoint(k_op._apply(v)))
        for axis, weight in tv_terms:
            wrap_diff(wrap_diff(v, axis, True, out=g), axis, False, out=gg)
            np.multiply(gg, weight, out=gg)
            np.add(out, gg, out=out)
        if mu > 0.0:
            np.multiply(v, mu, out=gg)
            np.add(out, gg, out=out)
        return out

    return matvec


def hqs_energy(model: FeasibilityModel, x, zh, zv) -> float:
    """Splitting objective tracked across alternations (test hook)."""
    rh, rv = model.hqs_rho
    res = model.data_op._apply(x) - model.observation.data
    e = 0.5 * float(np.vdot(res, res).real)
    dh = zh - _GH._apply(x)
    dv = zv - _GV._apply(x)
    e += rh * float(np.vdot(dh, dh).real) + rv * float(np.vdot(dv, dv).real)
    e += model.tv_weight * (lp_penalty(zh, model.tv_q) + lp_penalty(zv, model.tv_q))
    if model.anchor is not None:
        x_tilde, mu = model.anchor
        d = x - x_tilde.data
        e += 0.5 * mu * float(np.vdot(d, d).real)
    return e


def _hqs(model: FeasibilityModel, x_init: ImageTensor, energy_log=None, aux=None):
    b = model.observation.data
    if x_init.shape != b.shape:
        raise ConfigError("x_init shape differs from observation")
    rh, rv = model.hqs_rho
    if model.anchor is not None:
        x_tilde, mu = model.anchor
        anchor_arr = x_tilde.data
    else:
        anchor_arr, mu = None, 0.0
    spec_h = ProxSpec(model.tv_q, model.tv_weight / (2.0 * rh))
    spec_v = ProxSpec(model.tv_q, model.tv_weight / (2.0 * rv))

    x = x_init.data.copy()
    if energy_log is not None:
        energy_log.append(hqs_energy(model, x, _GH._apply(x), _GV._apply(x)))

    matvec = _normal_operator(model, mu) if model.x_solver == "cg" else None

    for _ in range(model.hqs_iters):
        zh = prox_lp_array(_GH._apply(x), spec_h)
        zv = prox_lp_array(_GV._apply(x), spec_v)
        rhs = model.ktb + 2.0 * rh * _GH._adjoint(zh) + 2.0 * rv * _GV._adjoint(zv)
        if anchor_arr is not None:
            rhs = rhs + mu * anchor_arr
        if model.x_solver == "fft":
            x = _fft_solve(model, rhs, mu)
        else:
            x = _cg_solve(matvec, rhs, x, model.cg_tol, model.cg_max_iters)
        if energy_log is not None:
            energy_log.append(hqs_energy(model, x, zh, zv))
    if aux is not None:
        aux["zh"], aux["zv"], aux["rhs"] = zh, zv, rhs
    return ImageTensor(x)


def solve_G(model: FeasibilityModel, x_init: ImageTensor, energy_log=None, aux=None) -> ImageTensor:
    """Approximately minimize the TV feasibility model from a warm start."""
    if model.anchor is not None:
        raise ValidationError("solve_G expects no anchor; use solve_G_mu")
    return _hqs(model, x_init, energy_log, aux)


def solve_G_mu(model: FeasibilityModel, x_init: ImageTensor, energy_log=None, aux=None) -> ImageTensor:
    """Anchored variant: same alternation with the +mu*I proximal term."""
    if model.anchor is None:
        raise ValidationError("solve_G_mu requires an anchor (x_tilde, mu)")
    if model.anchor[1] <= 0:
        raise ValidationError("solve_G_mu requires mu > 0; use solve_G for mu = 0")
    return _hqs(model, x_init, energy_log, aux)
