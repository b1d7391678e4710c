"""Problem builders for the restoration tasks: wavelet-sparsity deblurring,
masked inpainting, and the two-block rain-streak decomposition solver.

Deblurring and inpainting share one composite objective over wavelet codes,

    min_beta 0.5*||K W^T beta - b||^2 + lambda1 * ||beta||_p,

paired with a TV feasibility model on the image.  Deraining decomposes
y = x_b + x_r into background and rain layers, each with its own wavelet
codes, box constraints, anchored feasibility step, and a joint MDUS/BUS
guard over the stacked layers.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import feasibility as _feas
from .denoise import DenoiserSpec, denoise
from .engine import latent_step
from .errors import ConfigError, ValidationError
from .feasibility import FeasibilityModel
from .prox import ProxSpec, canonical_p, lp_penalty, project_box01, prox_lp_array
from .problem import CompositeProblem, SolverParams, iterate
from .tensor import (
    DEFAULT_LEVELS,
    BlurKernel,
    CircularConvolution,
    Identity,
    ImageTensor,
    Mask,
    WaveletForward,
    inner,
)


def _composite(observation, image_op, lipschitz, lambda1, p, lambda2, q, levels, **hqs):
    """The wavelet-code problem over image_op o W^T and its TV feasibility
    model over image_op, both fitting ``observation``.  ``hqs`` holds the
    FeasibilityModel solver keywords (hqs_rho, hqs_iters, cg_tol)."""
    wavelet = WaveletForward(levels)
    wavelet._check(observation.data)  # dyadic size for the wavelet transform
    prob = CompositeProblem(
        image_op=image_op,
        observation=observation,
        reg_spec=ProxSpec(p, lambda1),
        lipschitz=lipschitz,
        wavelet=wavelet,
    )
    feas = FeasibilityModel(
        data_op=image_op,
        observation=observation,
        tv_weight=lambda2,
        tv_q=q,
        **hqs,
    )
    return prob, feas


def build_deblur(
    blurry: ImageTensor,
    kernel: BlurKernel,
    lambda1: float,
    p: float = 0.5,
    lambda2: float = 0.0,
    q: float = 1.0,
    levels: int = DEFAULT_LEVELS,
    hqs_rho: float = FeasibilityModel.hqs_rho,
    hqs_iters: int = FeasibilityModel.hqs_iters,
):
    """Wavelet-coefficient deblurring problem plus its TV feasibility model.

    The data operator is K o W^T; with W orthonormal the gradient Lipschitz
    constant is ||K||_2^2, the largest entry of K's gram_spectrum.
    """
    conv = CircularConvolution(kernel)
    lipschitz = float(np.max(conv.gram_spectrum(blurry.height, blurry.width)))
    return _composite(
        blurry, conv, lipschitz, lambda1, p, lambda2, q, levels,
        hqs_rho=hqs_rho, hqs_iters=hqs_iters,
    )


def build_inpaint(
    observed: ImageTensor,
    mask,
    lambda1: float,
    p: float = 0.5,
    lambda2: float = 0.0,
    q: float = 1.0,
    levels: int = DEFAULT_LEVELS,
    hqs_rho: float = FeasibilityModel.hqs_rho,
    hqs_iters: int = FeasibilityModel.hqs_iters,
    cg_tol: float = FeasibilityModel.cg_tol,
):
    """Masked-observation problem; the mask+TV system is solved by CG.
    With W orthonormal and a 0/1 mask the Lipschitz constant is 1."""
    mask_op = Mask(mask)  # validates binary entries; apply checks the shape
    return _composite(
        mask_op.apply(observed), mask_op, 1.0, lambda1, p, lambda2, q, levels,
        hqs_rho=hqs_rho, hqs_iters=hqs_iters, cg_tol=cg_tol,
    )


# ---------------------------------------------------------------------------
# rain streak removal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerainWeights:
    nu1: float = 1e-3  # code sparsity, background
    nu2: float = 5e-3  # code sparsity, rain
    rho1: float = 0.02  # TV weight on the background layer
    rho2: float = 0.05  # sparsity weight on the rain layer
    p1: float = 1.0
    p2: float = 1.0
    recon_weight: float = 0.1  # observation coupling inside the MDUS guard

    def __post_init__(self):
        for name in ("nu1", "nu2", "rho2", "recon_weight"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.rho1 > 0:  # also the background model's HQS penalty
            raise ConfigError(f"rho1 must be > 0, got {self.rho1}")
        canonical_p(self.p1, "p1")
        canonical_p(self.p2, "p2")


@dataclass(frozen=True)
class DerainState:
    """Background/rain layers with their wavelet codes and guard state."""

    x_b: ImageTensor
    x_r: ImageTensor
    beta: ImageTensor
    gamma: ImageTensor
    weights: DerainWeights
    mu: float  # the anchor weight of both layers' feasibility steps
    alpha: float
    levels: int = DEFAULT_LEVELS
    # _memo's store: name -> (key, value); replace() shares it, derain_step
    # empties it on a state with new layer objects
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def layers(self):
        return self.x_b.data, self.x_r.data

    def with_layers(self, arrays):
        x_b, x_r = arrays
        return replace(self, x_b=ImageTensor(x_b), x_r=ImageTensor(x_r))

    @property
    def image(self) -> ImageTensor:
        return self.x_b


def _outside_box(*layers) -> bool:
    return any(layer.data.min() < 0.0 or layer.data.max() > 1.0 for layer in layers)


def _memo(state, name, key, compute):
    """``compute()``, kept in ``state``'s store under ``name`` with ``key``.

    The store holds one entry per name, made for its full key: an entry is
    reused only when its key ``==`` the new one, so an ImageTensor in it
    (read-only, equal only to itself) must be the same object.  Otherwise
    ``compute()`` replaces it; when it raises, nothing is stored.
    """
    entry = state._memo.get(name)
    if entry is None or entry[0] != key:
        entry = key, compute()
        state._memo[name] = entry
    return entry[1]


def _syntheses(state):
    """(W beta, W gamma) of the state's codes."""
    codes = state.beta, state.gamma
    return _memo(state, "syntheses", (*codes, state.levels), lambda: tuple(map(WaveletForward(state.levels).adjoint, codes)))


def derain_objective(y: ImageTensor, state: DerainState) -> float:
    """Full two-layer model value guarded by derain's MDUS step.

    Couples the layers to the observation (0.5*||y - x_b - x_r||^2) and to
    their wavelet codes, plus code sparsity and the box indicator.  The
    observation term keeps the monotone guard sensitive to the layer
    decomposition; without it the code-projection point is always the
    blockwise optimum and the guard would reject every feasibility step.
    """
    w = state.weights
    if _outside_box(state.x_b, state.x_r):
        return math.inf
    syn_b, syn_r = _syntheses(state)
    ry = y.data - state.x_b.data - state.x_r.data
    rb = state.x_b.data - syn_b.data
    rr = state.x_r.data - syn_r.data
    val = 0.5 * w.recon_weight * inner(ry, ry)
    val += 0.5 * inner(rb, rb) + 0.5 * inner(rr, rr)
    val += w.nu1 * lp_penalty(state.beta.data, w.p1)
    val += w.nu2 * lp_penalty(state.gamma.data, w.p2)
    return val


def estimate_rain_layer(y: ImageTensor, threshold: float = 0.02) -> ImageTensor:
    """Initial rain guess: thresholded positive median residual.

    A 3x3 median removes thin bright streaks but preserves step edges, so
    the positive part of y minus its median response isolates streak-like
    structure; soft-thresholding drops the remaining texture.
    """
    med = denoise(DenoiserSpec(kind="median", strength=1.0), y, 0)
    resid = np.maximum(y.data - med.data, 0.0)
    return ImageTensor(np.clip(prox_lp_array(resid, ProxSpec(1.0, threshold)), 0.0, 1.0))


def derain_init(y: ImageTensor, weights: DerainWeights, params: SolverParams, levels: int = DEFAULT_LEVELS) -> DerainState:
    ana = WaveletForward(levels)
    ana._check(y.data)  # dyadic size for the wavelet transform
    x_r = estimate_rain_layer(y)
    x_b = ImageTensor(np.clip(y.data - x_r.data, 0.0, 1.0))
    return DerainState(
        x_b=x_b,
        x_r=x_r,
        beta=ana.apply(x_b),
        gamma=ana.apply(x_r),
        weights=weights,
        mu=params.mu0,
        alpha=params.alpha0,
        levels=levels,
    )


def _background_model(y, x_r, weights):
    # HQS quadratic weights tied to the TV weight itself for this block
    return FeasibilityModel(
        data_op=Identity(),
        observation=ImageTensor(y.data - x_r.data),
        tv_weight=weights.rho1,
        tv_q=weights.p1,
        hqs_rho=weights.rho1,
        hqs_iters=5,
    )


def rain_layer_prox(resid, x_tilde, eta, rho, p):
    """Anchored elementwise rain update.

    Minimizes 0.5*(r - resid)^2 + (eta/2)*(r - x_tilde)^2 + rho*|r|^p by
    merging the two quadratics and thresholding their weighted center.
    """
    center = (resid + eta * x_tilde) / (1.0 + eta)
    return prox_lp_array(center, ProxSpec(p, rho / (1.0 + eta)))


def derain_step(
    y: ImageTensor,
    state: DerainState,
    denoisers,
    params: SolverParams,
    k: int,
):
    """One synchronized outer iteration over both layers, guarded by latent_step.

    Both layers' anchored steps share the weight mu, which BUS decays on
    rejection; MDUS's last fallback keeps the layers and moves only the
    codes.  Returns the next state and the trace record of the iteration.
    What it computes from the layers alone (analyses, x_G, denoised layers,
    anchored pair) goes through ``_memo``, so a kept-layers state reuses it.
    """
    w = state.weights
    n_b, n_r = denoisers
    s = params.resolve_step(1.0)
    layers = (y, state.x_b, state.x_r, w, state.levels)

    def layer_side():
        ana = WaveletForward(state.levels)
        bg_model = _background_model(y, state.x_r, w)
        resid_r = y.data - state.x_b.data
        x_G = (
            project_box01(_feas.solve_G(bg_model, state.x_b)),
            project_box01(ImageTensor(prox_lp_array(resid_r, ProxSpec(w.p2, w.rho2)))),
        )
        return (ana.apply(state.x_b), ana.apply(state.x_r)), bg_model, resid_r, x_G

    analyses, bg_model, resid_r, x_G = _memo(state, "layers", layers, layer_side)

    # (a) proximal-gradient update of the sparse codes (orthonormal W => L=1)
    def code_step(c, analysis, p, nu):
        grad = c.data - analysis.data
        return ImageTensor(prox_lp_array(c.data - s * grad, ProxSpec(p, s * nu)))

    beta = code_step(state.beta, analyses[0], w.p1, w.nu1)
    gamma = code_step(state.gamma, analyses[1], w.p2, w.nu2)
    codes = replace(state, beta=beta, gamma=gamma)

    # (b) objective-side layer updates: project the synthesized codes. Every
    # MDUS candidate shares these codes and the store, so the objective reuses them.
    syn_b, syn_r = _syntheses(codes)
    x_F = replace(codes, x_b=project_box01(syn_b), x_r=project_box01(syn_r))

    # (c)-(e) feasibility-side updates, anchor-free and anchored; a failed
    # denoiser raises out of anchored() and stores nothing
    request = layers + (n_b, n_r, n_b.strength_at(k), n_r.strength_at(k))

    def anchored():
        xt_b, xt_r = _memo(state, "denoised", request, lambda: (denoise(n_b, state.x_b, k), denoise(n_r, state.x_r, k)))
        x_b, x_r = _memo(state, "anchored", request + (state.mu,), lambda: (
            project_box01(_feas.solve_G_mu(bg_model, state.x_b, xt_b, state.mu)),
            project_box01(ImageTensor(rain_layer_prox(resid_r, xt_r.data, state.mu, w.rho2, w.p2))),
        ))
        return replace(codes, x_b=x_b, x_r=x_r)

    out = latent_step(
        k, state, x_F, replace(codes, x_b=x_G[0], x_r=x_G[1]), anchored, state.mu, state.alpha, params,
        lambda st: derain_objective(y, st), codes,
    )
    # new layer objects start an empty store: no state holds arrays of earlier layers
    kept = out.x.x_b is state.x_b and out.x.x_r is state.x_r
    return replace(out.x, mu=out.mu, alpha=out.alpha, _memo=state._memo if kept else {}), out.record


def derain_solve(
    y: ImageTensor,
    init: DerainState | None,
    denoisers,
    params: SolverParams,
    ground_truth: ImageTensor | None = None,
):
    """Iterate derain_step from ``init`` (None: derain_init with default weights)
    to joint relative tolerance on (x_b, x_r)."""
    if _outside_box(y):
        raise ValidationError("y must lie in [0, 1]")
    state = derain_init(y, DerainWeights(), params) if init is None else init
    if init is not None and _outside_box(state.x_b, state.x_r):
        raise ValidationError("initial layers must lie in [0, 1]")
    return iterate(
        state,
        lambda st, k: derain_step(y, st, denoisers, params, k),
        params,
        lambda st: derain_objective(y, st),
        ground_truth,
    )
