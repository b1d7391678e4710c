import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import tlf._kernels
import tlf.engine
import tlf.feasibility
import tlf.problem
import tlf.tasks
from tlf.denoise import DenoiserSpec
from tlf.engine import bus, dtlf_solve, mdus, tlf_solve
from tlf.feasibility import FeasibilityModel
from tlf.fixtures import (
    DEBLUR_WEIGHTS,
    deblur_denoiser,
    deblur_fixture,
    deblur_params,
    derain_denoisers,
    derain_params,
    rain_fixture,
)
from tlf.problem import CompositeProblem, SolverParams, eval_F, pg_step, solve_baseline
from tlf.prox import ProxSpec
from tlf.tasks import DerainWeights, build_deblur, derain_init, derain_solve, derain_step
from tlf.tensor import BlurKernel, CircularConvolution, Identity, ImageTensor, LinearOperator
from tlf.trace import BUS_ACCEPTED, BUS_FALLBACK, MDUS_ACCEPTED

from conftest import estimate_lipschitz, random_image


def image_space_setup(rng, h=32, w=32, lam1=5e-4, lam2=2e-3, p=1.0):
    """Deblur instance posed directly in image space (no wavelet coupling)."""
    op = CircularConvolution(BlurKernel.gaussian(5, 1.2))
    gt = random_image(rng, h, w)
    b = ImageTensor(op.apply(gt).data + 0.01 * rng.standard_normal((1, h, w)))
    lip = estimate_lipschitz(op, shape=(h, w), iters=100)
    prob = CompositeProblem(op, b, ProxSpec(p, lam1), lip, Identity())
    feas = FeasibilityModel(
        data_op=op, observation=b, tv_weight=lam2, hqs_iters=5
    )
    return prob, feas, gt


class TestMdus:
    def test_accepts_lower_objective(self, rng):
        v = random_image(rng, 4, 4)
        x_f = random_image(rng, 4, 4)
        table = {id(v): 3.0, id(x_f): 5.0}
        res = mdus(lambda z: table[id(z)], v, x_f)
        assert res.x is v and res.chosen == 0
        assert res.F_value == 3.0

    def test_falls_back_on_increase(self, rng):
        v = random_image(rng, 4, 4)
        x_f = random_image(rng, 4, 4)
        table = {id(v): 7.0, id(x_f): 5.0}
        res = mdus(lambda z: table[id(z)], v, x_f)
        assert res.x is x_f and res.chosen == 1
        assert res.F_value == 5.0

    def test_tie_accepts_v(self, rng):
        v = random_image(rng, 4, 4)
        x_f = random_image(rng, 4, 4)
        res = mdus(lambda z: 1.0, v, x_f)
        assert res.x is v and res.chosen == 0

    def test_nan_moves_to_the_fallback(self, rng, monkeypatch):
        v = random_image(rng, 4, 4)
        x_f = random_image(rng, 4, 4)
        for table in ({id(v): math.nan, id(x_f): 5.0}, {id(v): 3.0, id(x_f): math.nan}):
            res = mdus(lambda z: table[id(z)], v, x_f)
            assert res.x is x_f and res.chosen == 1
        # mAPG chooses through mdus too: with every F NaN it keeps the plain
        # PG point at each step, so it runs PG's iterates exactly
        prob, _, _ = image_space_setup(rng, 16, 16)
        params = SolverParams(max_iters=10, rel_tol=0.0)
        x_pg, _ = solve_baseline(prob, "pg", params)
        monkeypatch.setattr(tlf.problem, "eval_F", lambda prob, x: math.nan)
        x_mapg, _ = solve_baseline(prob, "mapg", params)
        assert np.array_equal(x_mapg.data, x_pg.data)

    def test_composite_problem_evaluation(self, rng):
        prob, _, _ = image_space_setup(rng, 16, 16)
        x = prob.default_init()
        x_f = pg_step(prob, x, 0.5 / prob.lipschitz)
        res = mdus(lambda v: eval_F(prob, v), x, x_f)
        assert res.F_value == min(eval_F(prob, x), eval_F(prob, x_f))


class TestBus:
    def test_within_bound_keeps_z(self):
        res = bus(0.5, 0.4, mu=0.9, beta=0.5, C=2.0)
        assert res.accepted and res.mu == 0.9

    def test_out_of_bound_falls_back(self):
        res = bus(1.0, 0.4, mu=0.9, beta=0.5, C=2.0)
        assert not res.accepted
        assert res.mu == 0.45

    def test_zero_displacement_always_accepted(self):
        res = bus(0.0, 0.7, mu=1.0, beta=0.5, C=1e-6)
        assert res.accepted

    def test_nan_displacement_rejected(self):
        # a failed denoiser leaves no anchored point: its norm is NaN
        res = bus(math.nan, 0.4, mu=0.9, beta=0.5, C=2.0)
        assert not res.accepted
        assert res.mu == 0.45


class TestTlfSolve:
    def test_alpha_zero_equals_pg(self, rng):
        prob, feas, _ = image_space_setup(rng)
        params = SolverParams(max_iters=30, rel_tol=0.0, alpha0=0.0)
        x_tlf, trace = tlf_solve(prob, feas, params)
        x_pg, _ = solve_baseline(prob, "pg", params)
        assert np.array_equal(x_tlf.data, x_pg.data)
        assert all(r.mdus_branch == MDUS_ACCEPTED for r in trace)  # ties accept v

    def test_feasibility_returning_pg_point_equals_pg(self, rng, monkeypatch):
        prob, feas, _ = image_space_setup(rng)
        params = SolverParams(max_iters=20, rel_tol=0.0)
        t = params.resolve_step(prob.lipschitz)
        monkeypatch.setattr(
            tlf.feasibility, "solve_G", lambda model, x_init, **kw: pg_step(prob, x_init, t)
        )
        x_tlf, _ = tlf_solve(prob, feas, params)
        x_pg, _ = solve_baseline(prob, "pg", params)
        # the aggregate alpha*a + (1-alpha)*a reintroduces ulp-level rounding,
        # so the trajectories agree to rounding noise rather than bit-for-bit
        assert np.allclose(x_tlf.data, x_pg.data, rtol=0, atol=1e-12)

    def test_monotone_and_sufficient_descent(self, rng):
        prob, feas, _ = image_space_setup(rng)
        params = SolverParams(max_iters=60, rel_tol=0.0)
        t = params.resolve_step(prob.lipschitz)
        sigma = 1.0 / (2.0 * t) - prob.lipschitz / 2.0
        _, trace = tlf_solve(prob, feas, params)
        prev = trace.initial_F
        for rec in trace:
            assert rec.F_value <= prev - sigma * rec.norm_xF_x ** 2 + 1e-10
            prev = rec.F_value

    def test_alpha_decays_exactly(self, rng):
        prob, feas, _ = image_space_setup(rng, 16, 16)
        params = SolverParams(max_iters=25, rel_tol=0.0, alpha0=0.7, gamma=0.95)
        _, trace = tlf_solve(prob, feas, params)
        recs = list(trace)
        assert recs[0].alpha == 0.7
        expected = 0.7
        for a, b in zip(recs, recs[1:]):
            assert b.alpha == 0.95 * a.alpha
            expected *= 0.95
        assert recs[-1].alpha == expected

    def test_stops_at_rel_tol_and_critical_point_proxy(self, rng):
        prob, feas, _ = image_space_setup(rng)
        params = SolverParams(max_iters=400, rel_tol=5e-4)
        x, trace = tlf_solve(prob, feas, params)
        last = trace.final()
        assert last.rel_err <= 5e-4
        assert last.norm_xF_x <= 10 * 5e-4 * np.linalg.norm(x.data)

    def test_displacement_partial_sums_plateau(self, rng):
        prob, feas, _ = image_space_setup(rng)
        params = SolverParams(max_iters=250, rel_tol=0.0)
        _, trace = tlf_solve(prob, feas, params)
        # rel_err is the step norm over an (approximately constant) iterate
        # norm, so its partial sums carry the finite-length trend
        disp = np.array([r.rel_err for r in trace])
        partial = np.cumsum(disp)
        assert partial[-1] - partial[int(0.8 * len(disp))] <= 0.1 * partial[-1]


class TestDtlfSolve:
    def test_tiny_mu_tracks_tlf(self, rng):
        prob, feas, _ = image_space_setup(rng)
        params = SolverParams(max_iters=30, rel_tol=0.0, mu0=1e-8)
        spec = DenoiserSpec(kind="tv-rof", strength=0.0)  # identity module
        _, tr_d = dtlf_solve(prob, feas, spec, params)
        _, tr_t = tlf_solve(prob, feas, params)
        for a, b in zip(tr_d, tr_t):
            assert a.F_value == pytest.approx(b.F_value, abs=1e-6)

    def test_invariants_on_random_instance(self, rng):
        prob, feas, gt = image_space_setup(rng)
        params = SolverParams(max_iters=40, rel_tol=0.0, mu0=0.5)
        spec = DenoiserSpec(kind="tv-rof", strength=0.002)
        _, trace = dtlf_solve(prob, feas, spec, params, ground_truth=gt)
        recs = list(trace)
        prev_f = trace.initial_F
        for rec in recs:
            assert rec.F_value <= prev_f + 1e-10
            prev_f = rec.F_value
            if rec.bus_branch == BUS_ACCEPTED:
                assert rec.norm_xGmu_x <= params.bus_c * rec.norm_xG_x
            assert rec.psnr is not None
        # mu nonincreasing; strict decay exactly on fallbacks
        for a, b in zip(recs, recs[1:]):
            if a.bus_branch == BUS_FALLBACK:
                assert b.mu == params.beta * a.mu
            else:
                assert b.mu == a.mu

    def test_identity_module_large_mu_bus_accepts(self, rng):
        prob, feas, _ = image_space_setup(rng, 16, 16)
        params = SolverParams(max_iters=5, rel_tol=0.0, mu0=1e6)
        spec = DenoiserSpec(kind="median", strength=0.0)  # x_tilde = x
        _, trace = dtlf_solve(prob, feas, spec, params)
        for rec in trace:
            # anchored solve pinned at x itself: left side of the bound ~ 0
            assert rec.bus_branch == BUS_ACCEPTED
            assert rec.norm_xGmu_x <= 1e-3 * rec.norm_xG_x

    def test_mu_underflow_keeps_running(self, rng):
        # every anchored point is rejected, so mu halves from 1e-320 to 0
        prob, feas, _ = image_space_setup(rng, 16, 16)
        params = SolverParams(max_iters=40, rel_tol=0.0, mu0=1e-320, bus_c=1e-9)
        spec = DenoiserSpec(kind="tv-rof", strength=0.01)
        _, trace = dtlf_solve(prob, feas, spec, params)
        assert len(trace) == 40
        assert all(rec.bus_branch == BUS_FALLBACK for rec in trace)
        assert trace.final().mu == 0.0

    def test_denoiser_failure_becomes_bus_fallback(self, rng, failing_denoiser, nan_denoiser):
        prob, feas, _ = image_space_setup(rng, 16, 16)
        params = SolverParams(max_iters=5, rel_tol=0.0)
        for command in (failing_denoiser, nan_denoiser):  # a crash, a NaN reply
            spec = DenoiserSpec(kind="external", command=command, strength=1.0)
            x, trace = dtlf_solve(prob, feas, spec, params)
            assert len(trace) == 5
            for rec in trace:
                assert rec.bus_branch == BUS_FALLBACK
                assert math.isnan(rec.norm_xGmu_x)
            # mu halves every iteration
            mus = [r.mu for r in trace]
            for a, b in zip(mus, mus[1:]):
                assert b == params.beta * a

    def test_failed_denoiser_matches_tlf_trajectory(self, rng, failing_denoiser):
        prob, feas, _ = image_space_setup(rng, 16, 16)
        params = SolverParams(max_iters=15, rel_tol=0.0)
        spec = DenoiserSpec(kind="external", command=failing_denoiser, strength=1.0)
        x_d, _ = dtlf_solve(prob, feas, spec, params)
        x_t, _ = tlf_solve(prob, feas, params)
        assert np.array_equal(x_d.data, x_t.data)


class TestCallTimeLookups:
    """Solvers reach their layers through module attributes at call time.

    The traced benchmark wraps exactly these attributes; the counts also pin
    how often each solver evaluates F and the derain objective.
    """

    ATTRS = [
        (tlf.problem, "pg_step"),
        (tlf.problem, "eval_F"),
        (tlf.engine, "pg_step"),
        (tlf.engine, "eval_F"),
        (tlf.engine, "denoise"),
        (tlf.tasks, "derain_objective"),
        (tlf.tasks, "denoise"),
        (tlf.feasibility, "solve_G"),
        (tlf.feasibility, "solve_G_mu"),
    ]

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for module, name in self.ATTRS:
            key = module.__name__.split(".")[-1] + "." + name
            monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
        return counts

    @pytest.fixture(scope="class")
    def deblur(self):
        _, kernel, blurry = deblur_fixture(size=32)
        return build_deblur(blurry, kernel, **DEBLUR_WEIGHTS)

    def test_pg(self, counts, deblur):
        _, trace = solve_baseline(deblur[0], "pg", deblur_params(max_iters=3))
        assert len(trace) == 3
        assert counts == {"problem.pg_step": 3, "problem.eval_F": 4}

    def test_tlf(self, counts, deblur):
        _, trace = tlf_solve(*deblur, deblur_params(max_iters=3))
        assert len(trace) == 3
        assert counts == {"engine.pg_step": 3, "engine.eval_F": 7, "feasibility.solve_G": 3}

    def test_dtlf(self, counts, deblur):
        _, trace = dtlf_solve(*deblur, deblur_denoiser(), deblur_params(max_iters=3))
        assert len(trace) == 3
        assert counts == {
            "engine.pg_step": 3,
            "engine.eval_F": 7,
            "engine.denoise": 3,
            "feasibility.solve_G": 3,
            "feasibility.solve_G_mu": 3,
        }

    def test_derain_solve(self, counts):
        y, _, _ = rain_fixture(seed=42, size=64)
        _, trace = derain_solve(y, None, derain_denoisers(), derain_params(max_iters=3, rel_tol=0.0))
        assert len(trace) == 3
        # derain_init's rain estimate calls one median denoise
        assert counts == {
            "tasks.derain_objective": 10,
            "tasks.denoise": 7,
            "feasibility.solve_G": 3,
            "feasibility.solve_G_mu": 3,
        }

    def test_derain_steps_reuse_the_kept_layers_work(self, counts):
        # MDUS keeps the layers from k=4 on, so steps 5-11 get step 4's layer
        # objects back and reuse its feasibility solves and denoiser calls
        y, _, _ = rain_fixture(seed=42, size=64)
        params = derain_params(rel_tol=0.0)
        state = derain_init(y, DerainWeights(), params)
        for k in range(12):
            state, _ = derain_step(y, state, derain_denoisers(), params, k)
        assert counts == {
            "tasks.derain_objective": 36,
            "tasks.denoise": 10 + 1,  # and derain_init's median
            "feasibility.solve_G": 5,
            "feasibility.solve_G_mu": 5,
        }


class Counting(LinearOperator):
    """``op``, counting its applications and its adjoint's in ``counts``."""

    def __init__(self, op, names, counts):
        self.op, self.names, self.counts = op, names, counts

    def _check(self, a):
        return self.op._check(a)

    def _apply(self, a):
        self.counts[self.names[0]] += 1
        return self.op._apply(a)

    def _adjoint(self, a):
        self.counts[self.names[1]] += 1
        return self.op._adjoint(a)


class TestOperatorApplications:
    """Each point's synthesis W^T x and forward product K W^T x are computed
    once per solve: the F evaluation of MDUS (or of the trace record) leaves
    them for the next PG step, the next feasibility warm start and the PSNR."""

    SETUP = {"W": 1, "W^T": 1, "K": 1}  # x_0 = W b, then F(x_0)
    PER_ITERATION = {
        "pg": {"W^T": 1, "K": 1, "K^T": 1, "W": 1},  # F(x_{k+1})
        # PG at the extrapolated point y, then F(x_{k+1})
        "apg": {"W^T": 2, "K": 2, "K^T": 1, "W": 1},
        # PG at y and at x_k, then F of both candidates
        "mapg": {"W^T": 3, "K": 3, "K^T": 2, "W": 2},
        # PG at x_k, W x_G, then F at v and at x_F
        "tlf": {"W^T": 2, "K": 2, "K^T": 1, "W": 2},
        "dtlf": {"W^T": 2, "K": 2, "K^T": 1, "W": 3},  # and W x_Gmu
    }

    @pytest.mark.parametrize("iters", [1, 4])
    @pytest.mark.parametrize("method", list(PER_ITERATION))
    def test_counts(self, method, iters):
        gt, kernel, blurry = deblur_fixture(size=32)
        prob, feas = build_deblur(blurry, kernel, **DEBLUR_WEIGHTS)
        counts = Counter()
        wavelet = Counting(prob.wavelet, ("W", "W^T"), counts)
        conv = Counting(prob.image_op, ("K", "K^T"), counts)
        prob = replace(prob, image_op=conv, wavelet=wavelet)
        params = deblur_params(max_iters=iters, rel_tol=0.0)
        if method == "tlf":
            _, trace = tlf_solve(prob, feas, params, ground_truth=gt)
        elif method == "dtlf":
            _, trace = dtlf_solve(prob, feas, deblur_denoiser(), params, ground_truth=gt)
        else:
            _, trace = solve_baseline(prob, method, params, ground_truth=gt)
        assert len(trace) == iters
        per = self.PER_ITERATION[method]
        assert dict(counts) == {key: self.SETUP.get(key, 0) + iters * n for key, n in per.items()}


def test_derain_step_synthesizes_each_code_once(monkeypatch):
    # code gradients: 2 analyses; x_F: 2 syntheses, which the three MDUS
    # candidates reuse; the wavelet-shrink rain denoiser: 1 of each
    y, _, _ = rain_fixture(seed=42, size=64)
    params = derain_params()
    state = derain_init(y, DerainWeights(), params)
    counts = {}

    def counting(name):
        fn = getattr(tlf._kernels, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(tlf._kernels, name, wrapper)

    counting("haar2_forward")
    counting("haar2_inverse")
    derain_step(y, state, derain_denoisers(), params, 0)
    assert counts == {"haar2_forward": 3, "haar2_inverse": 3}
