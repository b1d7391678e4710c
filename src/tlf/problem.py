"""Composite objective F(x) = 0.5*||Ax - b||^2 + lambda1 * sum|x_i|^p,
its proximal-gradient map, and the PG / APG / mAPG baseline solvers.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .metrics import psnr
from .prox import ProxSpec, lp_penalty, prox_lp_array
from .tensor import ImageTensor, LinearOperator, inner, norm
from .trace import IterateTrace, TraceRecord

BASELINE_METHODS = ("pg", "apg", "mapg")


@dataclass(frozen=True)
class CompositeProblem:
    """Smooth data-fit plus prox-able lp regularizer.

    The data operator is A = K o W^T: ``wavelet`` holds the analysis W
    (``Identity()`` for an image-space problem), whose adjoint maps the
    optimization variable to an image, and ``image_op`` (K) maps that image
    to observation space, so A x = K(W^T x) and A^T r = W(K^T r).
    """

    image_op: LinearOperator
    observation: ImageTensor
    reg_spec: ProxSpec  # tau field carries the weight lambda1
    lipschitz: float
    wavelet: LinearOperator

    def __post_init__(self):
        if not self.lipschitz > 0:
            raise ConfigError(f"lipschitz must be > 0, got {self.lipschitz}")

    def to_image(self, x: ImageTensor) -> ImageTensor:
        return self.wavelet.adjoint(x)

    def from_image(self, img: ImageTensor) -> ImageTensor:
        return self.wavelet.apply(img)

    def default_init(self) -> ImageTensor:
        return self.from_image(self.observation)


class Point:
    """A point x of one solve, with W^T x, A x - b and F(x) each computed at
    most once.

    Points are per-solve state: the frozen problem holds none of it, since
    ``tlf bench --jobs`` threads share problems. ``gradient`` uses up the
    residual, so a point keeps it only until its PG step; ``data`` lets a
    point stand where an ImageTensor's array is read.  ``layers`` and
    ``with_layers`` are the solve-state interface that ``distance``,
    ``aggregate`` and ``relative_change`` work on.
    """

    __slots__ = ("prob", "x", "_image", "_residual", "F")

    def __init__(self, prob: CompositeProblem, x: ImageTensor):
        self.prob, self.x = prob, x
        self._image = self._residual = self.F = None

    @property
    def data(self):
        return self.x.data

    @property
    def layers(self):
        return (self.x.data,)

    def with_layers(self, arrays):
        (array,) = arrays
        return Point(self.prob, ImageTensor(array))

    @property
    def image(self) -> ImageTensor:
        if self._image is None:
            self._image = self.prob.to_image(self.x)
        return self._image

    def residual(self) -> np.ndarray:
        """A x - b, kept until ``gradient`` uses it."""
        if self._residual is None:
            ax = self.prob.image_op.apply(self.image)
            self._residual = ax.data - self.prob.observation.data
        return self._residual

    def gradient(self) -> ImageTensor:
        """A^T (A x - b); the residual is dropped once used."""
        res = self.residual()
        self._residual = None
        return self.prob.from_image(self.prob.image_op.adjoint(ImageTensor(res)))


@dataclass(frozen=True)
class SolverParams:
    """Iteration controls shared by every solver in the package."""

    step: float = 0.0  # 0 -> 0.99 / L
    max_iters: int = 500
    rel_tol: float = 5e-4
    alpha0: float = 0.9
    gamma: float = 0.99
    mu0: float = 1.0
    beta: float = 0.5
    bus_c: float = 1.5

    def __post_init__(self):
        if not self.step >= 0:
            raise ConfigError(f"step must be >= 0 (0 means 0.99/L), got {self.step}")
        if not self.max_iters >= 1:
            raise ConfigError("max_iters must be >= 1")
        if not self.rel_tol >= 0:
            raise ConfigError("rel_tol must be >= 0")
        if not 0.0 <= self.alpha0 < 1.0:
            raise ConfigError("alpha0 must lie in [0, 1)")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie in (0, 1)")
        if not self.mu0 > 0:
            raise ConfigError("mu0 must be > 0")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must lie in (0, 1)")
        if not self.bus_c > 0:
            raise ConfigError("bus_c must be > 0")

    def resolve_step(self, lipschitz: float) -> float:
        t = self.step or 0.99 / lipschitz
        if not 0.0 < t * lipschitz < 1.0:
            raise ConfigError(
                f"step {t} outside (0, 1/L) for L={lipschitz}"
            )
        return t


def _point(prob, x) -> Point:
    return x if isinstance(x, Point) else Point(prob, x)


def eval_F(prob: CompositeProblem, x) -> float:
    """F at x, an ImageTensor or a Point; a Point keeps its F and residual."""
    point = _point(prob, x)
    if point.F is None:
        res = point.residual()
        value = 0.5 * inner(res, res)
        if prob.reg_spec.tau > 0:
            value += prob.reg_spec.tau * lp_penalty(point.data, prob.reg_spec.p)
        point.F = value
    return point.F


def pg_step(prob: CompositeProblem, x, t: float) -> ImageTensor:
    """One proximal-gradient step prox_{t*psi}(x - t*grad f(x)).

    ``x`` is an ImageTensor or a Point, whose residual the step uses up.
    """
    if not 0.0 < t * prob.lipschitz < 1.0:
        raise ConfigError(f"step {t} outside (0, 1/L) for L={prob.lipschitz}")
    g = _point(prob, x).gradient()
    return ImageTensor(
        prox_lp_array(x.data - t * g.data, prob.reg_spec.scaled(t))
    )


class MdusResult(NamedTuple):
    x: object
    F_value: float
    chosen: int  # 0: v, i: the i-th fallback


def mdus(fn, v, *fallbacks) -> MdusResult:
    """Monotone descent update: keep the first point of least ``fn``.

    A later point replaces the current choice unless the choice's F is <=
    its own: a tie keeps the earlier point (v first), and a NaN on either
    side moves to the later one.  This is the monotone-APG rule (Li & Lin,
    NeurIPS 2015), which mAPG and every latent step share.
    """
    x, f_x, chosen = v, fn(v), 0
    for i, point in enumerate(fallbacks, 1):
        f_point = fn(point)
        if not f_x <= f_point:
            x, f_x, chosen = point, f_point, i
    return MdusResult(x, f_x, chosen)


def distance(a, b) -> float:
    """||a - b|| over the layers of two solve states: a Point's one array,
    or derain's (background, rain) pair."""
    return math.hypot(*(norm(u - v) for u, v in zip(a.layers, b.layers)))


def aggregate(alpha: float, latent, x_F):
    """x_F with each layer replaced by alpha * latent + (1 - alpha) * x_F."""
    return x_F.with_layers([alpha * a + (1.0 - alpha) * b for a, b in zip(latent.layers, x_F.layers)])


def relative_change(new, old) -> float:
    """||new - old|| / ||new|| over the layers; 0/0 is 0 and x/0 is inf."""
    num = distance(new, old)
    den = math.hypot(*(norm(u) for u in new.layers))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def iterate(x, step, params, objective, ground_truth=None):
    """The outer loop of every solver in the package.

    ``x`` is a solve state (a Point or a DerainState).  ``objective(x)`` is
    the trace's initial F.  ``step(x, k)`` returns the next state and its
    TraceRecord.  The loop fills the record's ``rel_err`` from
    ``relative_change(new, old)`` and, given a ground truth, its ``psnr``
    from ``new.image``; it stops once rel_err <= rel_tol or after max_iters
    steps.  Returns the last state and the IterateTrace.
    """
    trace = IterateTrace(initial_F=objective(x))
    for k in range(params.max_iters):
        x_next, rec = step(x, k)
        rec.rel_err = relative_change(x_next, x)
        if ground_truth is not None:
            rec.psnr = psnr(x_next.image, ground_truth)
        trace.append(rec)
        x = x_next
        if rec.rel_err <= params.rel_tol:
            break
    return x, trace


def solve_baseline(
    prob: CompositeProblem,
    method: str,
    params: SolverParams,
    x0: ImageTensor | None = None,
    ground_truth: ImageTensor | None = None,
):
    """Run PG, APG (Nesterov (k-1)/(k+2) momentum) or monotone APG.

    Returns the problem-space solution and its IterateTrace.  All methods
    stop when ||x_{k+1} - x_k|| / ||x_{k+1}|| <= rel_tol or at max_iters.
    """
    method = method.lower()
    if method not in BASELINE_METHODS:
        raise ConfigError(f"unknown baseline {method!r}; expected one of {BASELINE_METHODS}")
    t = params.resolve_step(prob.lipschitz)
    x = prob.default_init() if x0 is None else x0
    x_prev = x

    def step(x, k):
        nonlocal x_prev
        if method == "pg":
            x_next = Point(prob, pg_step(prob, x, t))
        else:
            w = (k - 1) / (k + 2) if k >= 1 else 0.0
            y = ImageTensor(x.data + w * (x.data - x_prev.data))
            x_next = Point(prob, pg_step(prob, y, t))
            if method == "mapg":  # momentum candidate kept only if it does not lose to plain PG
                u = Point(prob, pg_step(prob, x, t))
                x_next = mdus(lambda p: eval_F(prob, p), x_next, u).x
        x_prev = x.x
        rec = TraceRecord(
            k=k,
            F_value=eval_F(prob, x_next),
            norm_xF_x=distance(x_next, x),
        )
        return x_next, rec

    # Only iterate holds the start Point, so its arrays go once step 0 is done.
    last, trace = iterate(Point(prob, x), step, params, lambda p: eval_F(prob, p), ground_truth)
    return last.x, trace
