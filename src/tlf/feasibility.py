"""Half-quadratic splitting solver for the TV-regularized feasibility model

    min_x 0.5*||Kx - b||^2 + lambda2 * sum_j ||grad_j x||_q      (j in {h, v})

optionally anchored by a proximal term (mu/2)*||x - x_tilde||^2.  Each
alternation thresholds the gradient surrogates z_j elementwise and then
solves the quadratic x-subproblem

    (K^T K + sum_j 2*rho grad_j^T grad_j + mu*I) x
        = K^T b + sum_j 2*rho grad_j^T z_j + mu*x_tilde

exactly in the frequency domain when K states its ``gram_spectrum``, or
otherwise (masks) by warm-started conjugate gradient with a Jacobi
preconditioner: D = diag(K^T K) + 2*rho*(2[W>1] + 2[H>1]) + mu, the
matrix's own diagonal.  CG stops once ||r|| <= cg_tol/2 * ||rhs||; a true
relative residual above cg_tol after CG_MAX_ITERS iterations raises
NumericalError.  The model holds what a solve cannot change; the anchor
(x_tilde, mu), D and one set of HQS buffers and difference views belong to
each solve call, so threads may share one model.  The CG matvec runs in
that call's buffers, and CG updates the call's x in place.  The FFT x-solve
keeps its spectrum in one buffer per call, scales it by the reciprocal of
the denominator (fft_base + mu) and transforms it back into x itself.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as _tensor
from .errors import ConfigError, NumericalError, ValidationError
from .prox import ProxSpec, prox_lp_array
from .tensor import ImageTensor, LinearOperator, diff_stencil

CG_MAX_ITERS = 2000


@dataclass(frozen=True)
class FeasibilityModel:
    data_op: LinearOperator
    observation: ImageTensor
    tv_weight: float
    tv_q: float = 1.0
    hqs_rho: float = 0.05
    hqs_iters: int = 5
    cg_tol: float = 1e-8
    # Loop-invariant terms of the x-subproblem, computed once per model:
    # K^T b, and when K states its gram_spectrum the anchor-free Fourier
    # denominator |K^|^2 + 2 rho |g_h^|^2 + 2 rho |g_v^|^2 on the rfft grid (None: CG).
    ktb: np.ndarray = field(init=False, repr=False, compare=False)
    fft_base: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tv_weight >= 0:
            raise ConfigError("tv_weight must be >= 0")
        ProxSpec(self.tv_q, 0.0)  # validates the exponent
        check_hqs_keys(self.hqs_rho, self.hqs_iters, self.cg_tol)
        object.__setattr__(self, "ktb", self.data_op._adjoint(self.observation.data))
        object.__setattr__(self, "fft_base", _fft_base(self))


def check_hqs_keys(hqs_rho, hqs_iters, cg_tol):
    """The range rules of the three HQS keys a config sets."""
    if not hqs_rho > 0:
        raise ConfigError(f"hqs_rho must be > 0, got {hqs_rho!r}")
    if not hqs_iters >= 1:
        raise ConfigError(f"hqs_iters must be >= 1, got {hqs_iters!r}")
    if not (math.isfinite(cg_tol) and cg_tol > 0):
        raise ConfigError(f"cg_tol must be finite and > 0, got {cg_tol!r}")


def _grad_freq_sq(height, width):
    """|FFT response|^2 of the wrap-around forward differences (rfft grid)."""
    gh = 4.0 * np.sin(np.pi * np.fft.rfftfreq(width)) ** 2
    gv = 4.0 * np.sin(np.pi * np.fft.fftfreq(height)) ** 2
    return gv[:, None], gh[None, :]


def _fft_base(model):
    h, w = model.observation.height, model.observation.width
    k2 = model.data_op.gram_spectrum(h, w)
    if k2 is None:
        return None
    rho = model.hqs_rho
    gv2, gh2 = _grad_freq_sq(h, w)
    return k2 + 2.0 * rho * gh2 + 2.0 * rho * gv2


def _cg_solve(matvec, rhs, x, tol, max_iters, diag):
    """Warm-started Jacobi-preconditioned CG on matvec(x) = rhs, in place on x.

    ``diag`` is the positive preconditioner D (an array or a scalar); each
    iteration preconditions the residual as z = r / D. The stop rule is on
    the unpreconditioned residual, ||r|| <= tol/2 * ||rhs||, and the result
    must then meet ||rhs - matvec(x)|| <= tol * ||rhs||, or NumericalError is
    raised. ``matvec`` may return the same buffer on every call, so its
    result is used up before the next call. x, r, z and p are updated in
    place; a zero rhs sets x to 0. Returns x.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        x.fill(0.0)
        return x
    stop = 0.5 * tol * rhs_norm
    r = rhs - matvec(x)
    z = r / diag
    p = z.copy()
    tmp = np.empty_like(r)
    rz = float(np.vdot(r, z))
    for _ in range(max_iters):
        if math.sqrt(float(np.vdot(r, r))) <= stop:
            break
        ap = matvec(p)
        pap = float(np.vdot(p, ap))
        if pap <= 0.0:
            break
        a = rz / pap
        np.multiply(p, a, out=tmp)
        x += tmp
        np.multiply(ap, a, out=tmp)
        r -= tmp
        np.divide(r, diag, out=z)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    true_res = float(np.linalg.norm(rhs - matvec(x))) / rhs_norm
    if not true_res <= tol:  # a NaN residual is a stall too
        raise NumericalError(
            f"CG stalled at relative residual {true_res:.3e} > {tol:.3e}",
            residual=true_res,
        )
    return x


def _jacobi_diagonal(model, mu):
    """diag of the normal operator: diag(K^T K) + 2 rho (2[W>1] + 2[H>1]) + mu.

    A wrapped difference along a side of length 1 is zero, so that axis adds
    nothing. An operator that cannot state its Gram diagonal counts as 1,
    which makes D a scalar. Summed in the matvec's order, so D equals the
    matvec probed with unit vectors bit for bit.
    """
    gram = model.data_op.gram_diagonal()
    weight = 2.0 * model.hqs_rho
    _, h, w = model.observation.shape
    return (1.0 if gram is None else gram) + weight * 2.0 * (w > 1) + weight * 2.0 * (h > 1) + mu


def _hqs(model: FeasibilityModel, x_init: ImageTensor, anchor, mu):
    """The HQS alternation; ``anchor`` (an ImageTensor) enters only when mu > 0.

    The working arrays and their difference views are made once per call,
    and each alternation writes into them with the same IEEE operations, in
    the same order, as the allocating form: z = prox(G x) for both
    directions at once, rhs = ((K^T b + 2 rho G_h^T z_h) + 2 rho G_v^T z_v)
    + mu x_tilde, then the x-solve. The CG x-solve's matvec reuses z and bz,
    which the rhs no longer needs, and updates x in place. The FFT x-solve
    scales one spectrum buffer by a reciprocal where the allocating form
    divides, and writes the inverse transform into x.
    """
    b = model.observation.data
    if x_init.shape != b.shape:
        raise ValidationError(f"x_init shape {x_init.shape} differs from observation {b.shape}")
    weight = 2.0 * model.hqs_rho
    spec = ProxSpec(model.tv_q, model.tv_weight / weight)

    z = np.empty((2,) + b.shape)  # G_h x and G_v x, then their prox z_h, z_v
    bz = np.empty_like(z)  # G_h^T z_h and G_v^T z_v; before that, the prox's scratch
    bh, bv = bz
    rhs = np.empty(b.shape)
    if model.fft_base is not None:
        spectrum = np.empty(b.shape[:2] + (b.shape[2] // 2 + 1,), dtype=complex)
    else:
        out = np.empty(b.shape)  # the CG matvec's result
    # x, the result, is made after the buffers: it outlives the call, so it
    # keeps the freed buffers off the top of the heap, where glibc would trim
    # them and the next call would fault them in again.
    x = x_init.data.copy()
    forward = diff_stencil(x, z[0], -1, True) + diff_stencil(x, z[1], -2, True)
    backward = diff_stencil(z[0], bh, -1, False) + diff_stencil(z[1], bv, -2, False)
    anchor_term = mu * anchor.data if mu > 0.0 else None
    if model.fft_base is not None:
        # numpy divides a complex c by a real d as ((re c + im c * 0) +
        # i (im c - re c * 0)) * (1/d), so the reciprocal's product is the
        # quotient but for the sign of a zero part; the dividing oracle in
        # tests/conftest.py pins the solve byte for byte.
        matvec, reciprocal = None, 1.0 / (model.fft_base + mu)
    else:
        diag = _jacobi_diagonal(model, mu)
        last = [None, None]  # CG's last input other than x, and its forward views

        def matvec(v):
            """(K^T K + 2 rho G_h^T G_h + 2 rho G_v^T G_v + mu I) v, added in that order."""
            if v is x:
                views = forward
            else:
                if last[0] is not v:
                    last[:] = v, diff_stencil(v, z[0], -1, True) + diff_stencil(v, z[1], -2, True)
                views = last[1]
            for minuend, subtrahend, dst in views + backward:
                np.subtract(minuend, subtrahend, out=dst)
            np.multiply(bz, weight, out=bz)
            model.data_op._gram(v, out)
            np.add(out, bh, out=out)
            np.add(out, bv, out=out)
            if mu > 0.0:
                np.multiply(v, mu, out=z[0])
                np.add(out, z[0], out=out)
            return out

    for _ in range(model.hqs_iters):
        for minuend, subtrahend, dst in forward:
            np.subtract(minuend, subtrahend, out=dst)
        prox_lp_array(z, spec, out=z, scratch=bz)
        for minuend, subtrahend, dst in backward:
            np.subtract(minuend, subtrahend, out=dst)
        np.multiply(bz, weight, out=bz)
        np.add(model.ktb, bh, out=rhs)
        np.add(rhs, bv, out=rhs)
        if anchor_term is not None:
            np.add(rhs, anchor_term, out=rhs)
        if matvec is None:
            # Every channel in one call, through tlf.tensor's FFT pair looked
            # up at call time; why not scipy.fft is noted at
            # CircularConvolution._conv. The spectrum is scaled in its own
            # buffer and transformed back into x itself, so the difference
            # views of x stay valid.
            _tensor.rfft2(rhs, out=spectrum)
            np.multiply(spectrum, reciprocal, out=spectrum)
            _tensor.irfft2(spectrum, b.shape[2], out=x)
        else:
            _cg_solve(matvec, rhs, x, model.cg_tol, CG_MAX_ITERS, diag)
    return ImageTensor(x)


def solve_G(model: FeasibilityModel, x_init: ImageTensor) -> ImageTensor:
    """Approximately minimize the TV feasibility model from a warm start."""
    return _hqs(model, x_init, None, 0.0)


def solve_G_mu(model: FeasibilityModel, x_init: ImageTensor, x_tilde: ImageTensor, mu: float) -> ImageTensor:
    """Anchored variant: the same alternation with the +mu*I proximal term.

    mu = 0 is allowed (a decayed BUS weight reaches it) and gives exactly
    solve_G's result.
    """
    if x_tilde.shape != model.observation.shape:
        raise ValidationError(f"anchor shape {x_tilde.shape} differs from observation {model.observation.shape}")
    if not mu >= 0.0:
        raise ValidationError(f"solve_G_mu requires mu >= 0, got {mu!r}")
    return _hqs(model, x_init, x_tilde, mu)
