"""Aggregated proximal solvers with monotone-descent and boundedness guards.

One iteration aggregates the proximal-gradient point x_F with the latent
feasibility solution x_G (or its denoiser-anchored variant x_Gmu) through a
geometrically decaying weight alpha, then lets two guards police the result:

* MDUS (``problem.mdus``) keeps the aggregate only if it does not increase
  F, else falls back to x_F; alpha decays by gamma either way.
* BUS (data-driven runs only) keeps the anchored aggregate only while
  ||x_Gmu - x|| <= C * ||x_G - x||, else falls back to the model-based
  aggregate and shrinks the anchor weight mu by beta.

``latent_step`` is that iteration, once, for TLF, DTLF and the derain
block alike; each solver only supplies its candidate points.

Wavelet-space problems run F and x_F on coefficients while the feasibility
and denoising modules work on images; the orthonormal synthesis operator
maps between the two spaces exactly.
"""

import math
from typing import NamedTuple

from . import feasibility as _feas
from .denoise import DenoiserSpec, denoise
from .errors import DenoiserError
from .feasibility import FeasibilityModel
from .problem import CompositeProblem, Point, SolverParams, aggregate, distance, eval_F, iterate, mdus, pg_step
from .tensor import ImageTensor
from .trace import BUS_ACCEPTED, BUS_FALLBACK, BUS_NA, MDUS_BRANCHES, TraceRecord


class BusResult(NamedTuple):
    accepted: bool
    mu: float


def bus(norm_xGmu: float, norm_xG: float, mu: float, beta: float, C: float) -> BusResult:
    """Boundedness check on the anchored step, with mu decay on rejection.

    Accepts while ||x_Gmu - x|| <= C * ||x_G - x||; a NaN norm (a failed
    denoiser) is rejected.
    """
    if norm_xGmu <= C * norm_xG:
        return BusResult(True, mu)
    return BusResult(False, beta * mu)


class LatentStep(NamedTuple):
    x: object  # the point MDUS kept
    alpha: float  # the aggregation weight for the next step
    mu: float  # the anchor weight for the next step
    record: TraceRecord


def latent_step(k, x, x_F, x_G, anchored, mu, alpha, params, objective, *fallbacks):
    """One guarded step of TLF, DTLF and derain from its candidate states.

    Every candidate is a solve state of x's kind (a Point, or derain's
    layer pair).  ``anchored`` (None for TLF) proposes the anchored state
    x_Gmu; a ``DenoiserError`` inside it is absorbed as a NaN norm, which
    BUS rejects, so a failed denoiser costs the anchored state, never the
    solve.  BUS chooses between x_Gmu and x_G, ``problem.aggregate`` builds
    v, and MDUS keeps the first of v, x_F and ``fallbacks`` with least
    ``objective``; alpha then decays by gamma, and mu by beta when BUS
    rejects.  The record keeps each candidate's ``problem.distance`` to x.
    """
    rec = TraceRecord(
        k=k, F_value=math.nan, norm_xF_x=distance(x_F, x), norm_xG_x=distance(x_G, x),
        alpha=alpha, bus_branch=BUS_NA,
    )
    latent = x_G
    if anchored is not None:
        try:
            x_Gmu = anchored()
        except DenoiserError:
            x_Gmu = None
        rec.norm_xGmu_x = math.nan if x_Gmu is None else distance(x_Gmu, x)
        rec.mu = mu
        accepted, mu = bus(rec.norm_xGmu_x, rec.norm_xG_x, mu, params.beta, params.bus_c)
        rec.bus_branch = BUS_ACCEPTED if accepted else BUS_FALLBACK
        if accepted:
            latent = x_Gmu
    guard = mdus(objective, aggregate(alpha, latent, x_F), x_F, *fallbacks)
    rec.F_value, rec.mdus_branch = guard.F_value, MDUS_BRANCHES[guard.chosen]
    return LatentStep(guard.x, params.gamma * alpha, mu, rec)


def _latent_solve(prob, feas, denoiser, params, ground_truth):
    """TLF (no denoiser) or DTLF: pg_step and the feasibility solves feed latent_step."""
    t = params.resolve_step(prob.lipschitz)
    alpha, mu = params.alpha0, params.mu0

    def objective(v):
        return eval_F(prob, v)

    def step(x, k):
        nonlocal alpha, mu
        img_x = x.image

        def anchored():
            return Point(prob, prob.from_image(_feas.solve_G_mu(feas, img_x, denoise(denoiser, img_x, k), mu)))

        # MDUS evaluates both of its Points; the one it keeps carries its
        # synthesis and residual into the next step, the loser is dropped.
        # x_G and x_Gmu are only measured, so their Points compute nothing.
        out = latent_step(
            k, x, Point(prob, pg_step(prob, x, t)), Point(prob, prob.from_image(_feas.solve_G(feas, img_x))),
            None if denoiser is None else anchored, mu, alpha, params, objective,
        )
        alpha, mu = out.alpha, out.mu
        return out.x, out.record

    # Only iterate holds the start Point, so its arrays go once step 0 is done.
    last, trace = iterate(Point(prob, prob.default_init()), step, params, objective, ground_truth)
    return last.x, trace


def tlf_solve(
    prob: CompositeProblem,
    feas: FeasibilityModel,
    params: SolverParams,
    ground_truth: ImageTensor | None = None,
):
    """Task-driven latent feasibility iteration (model-based constraint)."""
    return _latent_solve(prob, feas, None, params, ground_truth)


def dtlf_solve(
    prob: CompositeProblem,
    feas: FeasibilityModel,
    denoiser: DenoiserSpec,
    params: SolverParams,
    ground_truth: ImageTensor | None = None,
):
    """Data-driven TLF: denoiser-anchored feasibility under the BUS guard.

    A denoiser failure at iteration k is absorbed as a BUS rejection: the
    iteration falls back to the model-based aggregate and mu decays.
    """
    return _latent_solve(prob, feas, denoiser, params, ground_truth)
