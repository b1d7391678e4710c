import math

import numpy as np
import pytest

from tlf.errors import ConfigError
from tlf.fixtures import DEBLUR_WEIGHTS, deblur_fixture
from tlf.problem import (
    CompositeProblem,
    Point,
    SolverParams,
    aggregate,
    distance,
    eval_F,
    pg_step,
    relative_change,
    solve_baseline,
)
from tlf.prox import ProxSpec
from tlf.tasks import DerainState, DerainWeights, build_deblur
from tlf.tensor import BlurKernel, CircularConvolution, Identity, ImageTensor

from conftest import estimate_lipschitz, random_image, reference_apg


def make_deblur(rng, h=16, w=16, p=0.5, lam=1e-3, noise=0.01):
    kernel = BlurKernel.gaussian(5, 1.0)
    op = CircularConvolution(kernel)
    gt = random_image(rng, h, w)
    b = ImageTensor(op.apply(gt).data + noise * rng.standard_normal((1, h, w)))
    lip = estimate_lipschitz(op, shape=(h, w), iters=100)
    return CompositeProblem(op, b, ProxSpec(p, lam), lip, Identity())


def naive_eval_F(prob, x):
    ax = prob.image_op.apply(prob.to_image(x)).data
    b = prob.observation.data
    total = 0.0
    for r, o in zip(ax.ravel(), b.ravel()):
        total += 0.5 * (r - o) ** 2
    p, tau = prob.reg_spec.p, prob.reg_spec.tau
    for v in x.data.ravel():
        if p == 0.0:
            total += tau * (v != 0.0)
        else:
            total += tau * abs(v) ** p
    return total


class TestEvalF:
    def test_zero_residual_zero_reg(self, rng):
        x = random_image(rng, 8, 8)
        prob = CompositeProblem(Identity(), x, ProxSpec(1.0, 0.0), 1.0, Identity())
        assert eval_F(prob, x) == 0.0

    def test_hand_computed(self):
        x = ImageTensor(np.array([[[2.0]]]))
        prob = CompositeProblem(
            Identity(), ImageTensor(np.zeros((1, 1))), ProxSpec(1.0, 1.0), 1.0, Identity()
        )
        assert eval_F(prob, x) == pytest.approx(4.0, abs=1e-15)

    def test_matches_scalar_loop(self, rng):
        prob = make_deblur(rng, 8, 8)
        x = random_image(rng, 8, 8)
        assert eval_F(prob, x) == pytest.approx(naive_eval_F(prob, x), abs=1e-12)


class TestPgStep:
    def test_fixed_point(self, rng):
        x = random_image(rng, 8, 8)
        prob = CompositeProblem(Identity(), x, ProxSpec(1.0, 0.0), 1.0, Identity())
        out = pg_step(prob, x, 0.5)
        assert np.array_equal(out.data, x.data)

    def test_one_pixel_hand_case(self):
        prob = CompositeProblem(
            Identity(), ImageTensor(np.zeros((1, 1))), ProxSpec(1.0, 1.0), 1.0, Identity()
        )
        x = ImageTensor(np.array([[[1.0]]]))
        out = pg_step(prob, x, 0.5)
        assert out.data[0, 0, 0] == 0.0

    def test_step_validation(self, rng):
        prob = make_deblur(rng)
        with pytest.raises(ConfigError):
            pg_step(prob, prob.default_init(), 1.5 / prob.lipschitz)
        with pytest.raises(ConfigError):
            pg_step(prob, prob.default_init(), 0.0)

    def test_sufficient_descent_200_iterations(self, rng):
        prob = make_deblur(rng, 16, 16, p=0.5, lam=2e-3)
        t = 0.99 / prob.lipschitz
        sigma = 1.0 / (2.0 * t) - prob.lipschitz / 2.0
        x = prob.default_init()
        fx = eval_F(prob, x)
        for _ in range(200):
            nxt = pg_step(prob, x, t)
            f_nxt = eval_F(prob, nxt)
            gap = float(np.linalg.norm(nxt.data - x.data)) ** 2
            assert f_nxt <= fx - sigma * gap + 1e-10
            x, fx = nxt, f_nxt

    def test_gradient_lipschitz_bound(self, rng):
        prob = make_deblur(rng)
        for _ in range(20):
            x = random_image(rng)
            y = random_image(rng)
            gx = Point(prob, x).gradient().data
            gy = Point(prob, y).gradient().data
            lhs = np.linalg.norm(gx - gy)
            rhs = prob.lipschitz * np.linalg.norm(x.data - y.data)
            assert lhs <= rhs * (1.0 + 1e-6) + 1e-6


class TestBaselines:
    @pytest.mark.parametrize("method", ["pg", "apg", "mapg"])
    def test_exact_least_squares(self, rng, method):
        b = random_image(rng, 8, 8)
        prob = CompositeProblem(Identity(), b, ProxSpec(1.0, 0.0), 1.0, Identity())
        params = SolverParams(step=0.9999, max_iters=10, rel_tol=1e-10)
        x, trace = solve_baseline(
            prob, method, params, x0=ImageTensor(np.zeros((1, 8, 8)))
        )
        assert len(trace) <= 6
        assert trace.final().rel_err <= 1e-10
        assert np.linalg.norm(x.data - b.data) <= 1e-8 * np.linalg.norm(b.data)

    def test_unknown_method(self, rng):
        prob = make_deblur(rng)
        with pytest.raises(ConfigError):
            solve_baseline(prob, "niapg", SolverParams())

    def test_mapg_monotone_on_nonconvex(self, rng):
        prob = make_deblur(rng, 16, 16, p=0.5, lam=5e-3)
        params = SolverParams(max_iters=100, rel_tol=0.0)
        _, trace = solve_baseline(prob, "mapg", params)
        values = [trace.initial_F] + trace.F_values()
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10

    def test_pg_equals_composed_steps(self, rng):
        prob = make_deblur(rng, 16, 16)
        params = SolverParams(max_iters=25, rel_tol=0.0)
        x, _ = solve_baseline(prob, "pg", params)
        t = params.resolve_step(prob.lipschitz)
        y = prob.default_init()
        for _ in range(25):
            y = pg_step(prob, y, t)
        assert np.array_equal(x.data, y.data)

    @pytest.mark.parametrize("method", ["apg", "mapg"])
    def test_bit_equal_to_uncached_reference(self, method):
        gt, kernel, blurry = deblur_fixture(size=32)
        # nonconvex p = 1/2, where mAPG keeps the plain PG point in 4 of 40 steps
        prob, _ = build_deblur(blurry, kernel, **dict(DEBLUR_WEIGHTS, lambda1=2e-3, p=0.5))
        params = SolverParams(max_iters=40, rel_tol=0.0)
        x, trace = solve_baseline(prob, method, params, ground_truth=gt)
        want_x, want_F0, want_rows, kept_pg = reference_apg(prob, method == "mapg", params, gt)
        assert kept_pg > 0 if method == "mapg" else kept_pg == 0
        assert x.data.tobytes() == want_x.data.tobytes()
        assert trace.initial_F == want_F0
        assert [(r.F_value, r.norm_xF_x, r.rel_err, r.psnr) for r in trace] == want_rows

    def test_pg_displacement_partial_sums_plateau(self, rng):
        prob = make_deblur(rng, 16, 16, p=0.5, lam=2e-3)
        params = SolverParams(max_iters=300, rel_tol=0.0)
        _, trace = solve_baseline(prob, "pg", params)
        sq = np.array([r.norm_xF_x ** 2 for r in trace])
        partial = np.cumsum(sq)
        assert partial[-1] - partial[int(0.8 * len(sq))] <= 0.05 * partial[-1]


class TestSolverParams:
    def test_range_validation(self):
        with pytest.raises(ConfigError):
            SolverParams(alpha0=1.0)
        with pytest.raises(ConfigError):
            SolverParams(gamma=0.0)
        with pytest.raises(ConfigError):
            SolverParams(beta=1.0)
        with pytest.raises(ConfigError):
            SolverParams(bus_c=0.0)
        with pytest.raises(ConfigError):
            SolverParams(mu0=0.0)
        with pytest.raises(ConfigError):
            SolverParams(step=-1.0)

    def test_default_step(self, rng):
        prob = make_deblur(rng)
        t = SolverParams().resolve_step(prob.lipschitz)
        assert 0.0 < t * prob.lipschitz < 1.0


def derain_state(rng, x_b, x_r, mu=0.3, alpha=0.6):
    codes = [ImageTensor(rng.standard_normal((1, 8, 8))) for _ in range(2)]
    return DerainState(
        x_b=ImageTensor(x_b), x_r=ImageTensor(x_r), beta=codes[0], gamma=codes[1],
        weights=DerainWeights(nu1=2e-3), mu=mu, alpha=alpha, levels=2,
    )


class TestSolveStates:
    """distance, aggregate and relative_change over Points and derain's layer pairs."""

    def test_relative_change_edge_rules(self, rng):
        prob = make_deblur(rng, h=8, w=8)
        zero, ones = np.zeros((1, 8, 8)), np.ones((1, 8, 8))
        z, o = Point(prob, ImageTensor(zero)), Point(prob, ImageTensor(ones))
        assert relative_change(z, Point(prob, ImageTensor(zero))) == 0.0
        assert relative_change(z, o) == math.inf
        zz = derain_state(rng, zero, zero)
        assert relative_change(zz, derain_state(rng, zero, zero)) == 0.0
        assert relative_change(zz, derain_state(rng, zero, ones)) == math.inf

    def test_point_distance_is_the_array_norm(self, rng):
        prob = make_deblur(rng, h=8, w=8)
        a, b = rng.standard_normal((2, 1, 8, 8))
        assert distance(Point(prob, ImageTensor(a)), Point(prob, ImageTensor(b))) == float(np.linalg.norm(a - b))

    def test_layer_distance_joins_the_layer_norms(self, rng):
        a_b, a_r, b_b, b_r = rng.uniform(0.0, 1.0, (4, 1, 8, 8))
        got = distance(derain_state(rng, a_b, a_r), derain_state(rng, b_b, b_r))
        assert got == math.hypot(np.linalg.norm(a_b - b_b), np.linalg.norm(a_r - b_r))

    def test_aggregate_keeps_x_F_state(self, rng):
        prob = make_deblur(rng, h=8, w=8)
        a, b = rng.standard_normal((2, 1, 8, 8))
        v = aggregate(0.25, Point(prob, ImageTensor(a)), Point(prob, ImageTensor(b)))
        assert type(v) is Point and v.prob is prob
        np.testing.assert_array_equal(v.data, 0.25 * a + 0.75 * b)
        latent = derain_state(rng, *rng.uniform(0.0, 1.0, (2, 1, 8, 8)), mu=0.9, alpha=0.1)
        x_F = derain_state(rng, *rng.uniform(0.0, 1.0, (2, 1, 8, 8)))
        v = aggregate(0.25, latent, x_F)
        assert type(v) is DerainState
        for name in ("beta", "gamma", "mu", "alpha", "levels", "weights"):
            assert getattr(v, name) is getattr(x_F, name)
        np.testing.assert_array_equal(v.x_b.data, 0.25 * latent.x_b.data + 0.75 * x_F.x_b.data)
        np.testing.assert_array_equal(v.x_r.data, 0.25 * latent.x_r.data + 0.75 * x_F.x_r.data)
