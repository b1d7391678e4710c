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
from typing import NamedTuple

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
    WaveletInverse,
)


def _composite(observation, image_op, lipschitz, lambda1, p, lambda2, q, levels, **hqs):
    """The wavelet-code problem over image_op o W^T and its TV feasibility
    model over image_op, both fitting ``observation``.  ``hqs`` holds the
    FeasibilityModel solver keywords (hqs_rho, hqs_iters, cg_tol)."""
    synthesis = WaveletInverse(levels)
    synthesis._check(observation.data)  # dyadic size for the wavelet transform
    prob = CompositeProblem(
        image_op=image_op,
        observation=observation,
        reg_spec=ProxSpec(p, lambda1),
        lipschitz=lipschitz,
        synthesis=synthesis,
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
    mask_op = Mask(mask)  # validates binary entries
    if mask_op.mask.shape[1:] != (observed.height, observed.width):
        raise ValidationError("mask shape differs from observation")
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
    # derain_step's layer-side work on these very layers, which a step that
    # keeps the layers hands to the next one
    _layer_work: "_LayerWork | None" = field(default=None, compare=False, repr=False)

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


def derain_objective(y: ImageTensor, state: DerainState, syntheses=None) -> float:
    """Full two-layer model value guarded by derain's MDUS step.

    Couples the layers to the observation (0.5*||y - x_b - x_r||^2) and to
    their wavelet codes, plus code sparsity and the box indicator.  The
    observation term keeps the monotone guard sensitive to the layer
    decomposition; without it the code-projection point is always the
    blockwise optimum and the guard would reject every feasibility step.
    ``syntheses``, when given, is the pair (W beta, W gamma) of the state's
    own codes, which a caller that has them passes instead of resynthesizing.
    """
    w = state.weights
    if _outside_box(state.x_b, state.x_r):
        return math.inf
    if syntheses is None:
        syn = WaveletInverse(state.levels)
        syntheses = syn.apply(state.beta), syn.apply(state.gamma)
    ry = y.data - state.x_b.data - state.x_r.data
    rb = state.x_b.data - syntheses[0].data
    rr = state.x_r.data - syntheses[1].data
    val = 0.5 * w.recon_weight * float(np.vdot(ry, ry).real)
    val += 0.5 * float(np.vdot(rb, rb).real) + 0.5 * float(np.vdot(rr, rr).real)
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


class _LayerWork(NamedTuple):
    """What derain_step computes from the layers alone, for one key.

    The key is y, x_b and x_r by identity (ImageTensors are never changed in
    place) plus the weights and levels by value.  ``anchors`` is None until
    both layers have been denoised, then (request, (xt_b, xt_r)), the request
    being both DenoiserSpecs and both strengths; ``anchored`` is then
    (mu, the projected anchored pair) for those anchors.
    """

    y: ImageTensor
    x_b: ImageTensor
    x_r: ImageTensor
    weights: DerainWeights
    levels: int
    analyses: tuple  # (W x_b, W x_r) for the code step
    bg_model: FeasibilityModel
    resid_r: np.ndarray  # y - x_b
    x_G: tuple  # the projected anchor-free layer pair
    anchors: tuple | None = None
    anchored: tuple | None = None

    def fits(self, y, state):
        return (
            self.y is y and self.x_b is state.x_b and self.x_r is state.x_r
            and self.weights == state.weights and self.levels == state.levels
        )


def _layer_work(y, state):
    """The state's own layer-side work if its key fits, else a fresh one."""
    work = state._layer_work
    if work is not None and work.fits(y, state):
        return work
    w = state.weights
    ana = WaveletForward(state.levels)
    bg_model = _background_model(y, state.x_r, w)
    resid_r = y.data - state.x_b.data
    x_G = (
        project_box01(_feas.solve_G(bg_model, state.x_b)),
        project_box01(ImageTensor(prox_lp_array(resid_r, ProxSpec(w.p2, w.rho2)))),
    )
    return _LayerWork(
        y, state.x_b, state.x_r, w, state.levels,
        (ana.apply(state.x_b), ana.apply(state.x_r)), bg_model, resid_r, x_G,
    )


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

    Everything computed from the layers alone (their analyses, x_G, the
    denoised layers per denoiser request and the anchored pair per mu) is
    kept on a returned state whose layers are the input's own objects, and a
    step on it reuses that work instead of recomputing it.
    """
    w = state.weights
    syn = WaveletInverse(state.levels)
    n_b, n_r = denoisers
    s = params.resolve_step(1.0)
    work = _layer_work(y, state)

    # (a) proximal-gradient update of the sparse codes (orthonormal W => L=1)
    def code_step(c, analysis, p, nu):
        grad = c.data - analysis.data
        return ImageTensor(prox_lp_array(c.data - s * grad, ProxSpec(p, s * nu)))

    beta = code_step(state.beta, work.analyses[0], w.p1, w.nu1)
    gamma = code_step(state.gamma, work.analyses[1], w.p2, w.nu2)
    codes = replace(state, beta=beta, gamma=gamma)

    # (b) objective-side layer updates: project the synthesized codes. Every
    # MDUS candidate carries these codes, so the objective reuses them.
    syntheses = syn.apply(beta), syn.apply(gamma)
    x_F = replace(codes, x_b=project_box01(syntheses[0]), x_r=project_box01(syntheses[1]))

    # (c)-(e) feasibility-side updates, anchor-free and anchored; a failed
    # denoiser raises out of anchored() and leaves nothing in ``work``
    x_G = replace(codes, x_b=work.x_G[0], x_r=work.x_G[1])
    request = (n_b, n_r, n_b.strength_at(k), n_r.strength_at(k))

    def anchored():
        nonlocal work
        if work.anchors is None or work.anchors[0] != request:
            anchors = denoise(n_b, state.x_b, k), denoise(n_r, state.x_r, k)
            work = work._replace(anchors=(request, anchors), anchored=None)
        if work.anchored is None or work.anchored[0] != state.mu:
            xt_b, xt_r = work.anchors[1]
            pair = (
                project_box01(_feas.solve_G_mu(work.bg_model, state.x_b, xt_b, state.mu)),
                project_box01(ImageTensor(rain_layer_prox(work.resid_r, xt_r.data, state.mu, w.rho2, w.p2))),
            )
            work = work._replace(anchored=(state.mu, pair))
        x_b, x_r = work.anchored[1]
        return replace(codes, x_b=x_b, x_r=x_r)

    out = latent_step(
        k, state, x_F, x_G, anchored, state.mu, state.alpha, params,
        lambda st: derain_objective(y, st, syntheses), codes,
    )
    # only a state on the same layer objects can reuse the work; any other
    # drops it, so a state holds no arrays of earlier layers
    kept = out.x.x_b is state.x_b and out.x.x_r is state.x_r
    return replace(out.x, mu=out.mu, alpha=out.alpha, _layer_work=work if kept else None), out.record


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
