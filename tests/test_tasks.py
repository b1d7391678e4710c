import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import tlf.feasibility
import tlf.tasks
from tlf.denoise import DenoiserSpec
from tlf.engine import tlf_solve
from tlf.errors import ConfigError, DenoiserError, ShapeError, ValidationError
from tlf.feasibility import solve_G
from tlf.fixtures import (
    deblur_fixture,
    deblur_params,
    derain_denoisers,
    derain_params,
    inpaint_fixture,
    rain_fixture,
    synthetic_scene,
)
from tlf.metrics import psnr
from tlf.problem import SolverParams
from tlf.tasks import (
    DerainState,
    DerainWeights,
    build_deblur,
    build_inpaint,
    derain_init,
    derain_objective,
    derain_solve,
    derain_step,
    estimate_rain_layer,
    rain_layer_prox,
)
from tlf.tensor import BlurKernel, ImageTensor, WaveletForward
from tlf.trace import BUS_FALLBACK, MDUS_BRANCHES, MDUS_KEPT

from conftest import Adjoint, estimate_lipschitz, roll_diff


class TestBuildDeblur:
    def test_delta_kernel_recovers_observation(self, rng):
        b = ImageTensor(rng.uniform(0.1, 0.9, size=(1, 32, 32)))
        prob, feas = build_deblur(b, BlurKernel.delta(), lambda1=0.0, lambda2=0.0)
        params = SolverParams(max_iters=100, rel_tol=0.0)
        x, _ = tlf_solve(prob, feas, params)
        restored = prob.to_image(x)
        assert np.linalg.norm(restored.data - b.data) <= 1e-8 * np.linalg.norm(b.data)

    def test_lipschitz_matches_frequency_oracle(self):
        gt, kernel, blurry = deblur_fixture()
        prob, _ = build_deblur(blurry, kernel, lambda1=1e-3)
        pad = np.zeros((blurry.height, blurry.width))
        kh, kw = kernel.size
        pad[:kh, :kw] = kernel.taps
        pad = np.roll(pad, (-(kh // 2), -(kw // 2)), axis=(0, 1))
        want = float(np.abs(np.fft.fft2(pad)).max() ** 2)
        assert prob.lipschitz == pytest.approx(want, abs=1e-12)
        shape = (1, blurry.height, blurry.width)
        # power iteration on A = K o W^T, synthesis first
        power = estimate_lipschitz(Adjoint(prob.wavelet), prob.image_op, shape=shape, iters=1500)
        assert abs(power - prob.lipschitz) <= 1e-6

    def test_non_dyadic_rejected(self, rng):
        with pytest.raises(ShapeError):
            build_deblur(ImageTensor(np.zeros((1, 60, 60))), BlurKernel.delta(), 1e-3)

    def test_pipeline_beats_observation_psnr(self):
        gt, kernel, blurry = deblur_fixture()
        prob, feas = build_deblur(blurry, kernel, **_deblur_weights())
        x, _ = tlf_solve(prob, feas, deblur_params(max_iters=200))
        assert psnr(prob.to_image(x), gt) >= psnr(blurry, gt) + 1.0


def _deblur_weights():
    from tlf.fixtures import DEBLUR_WEIGHTS

    return DEBLUR_WEIGHTS


class TestBuildInpaint:
    def test_all_ones_mask_reduces_to_denoising(self, rng):
        obs = ImageTensor(rng.uniform(0.1, 0.9, size=(1, 16, 16)))
        prob, feas = build_inpaint(obs, np.ones((16, 16)), lambda1=0.0, lambda2=0.0)
        params = SolverParams(max_iters=50, rel_tol=0.0)
        x, _ = tlf_solve(prob, feas, params)
        assert np.linalg.norm(prob.to_image(x).data - obs.data) <= 1e-8

    def test_all_zeros_mask_gives_flat_feasibility_solution(self, rng):
        obs = ImageTensor(rng.uniform(size=(1, 16, 16)))
        _, feas = build_inpaint(obs, np.zeros((16, 16)), lambda1=1e-3, lambda2=0.5, hqs_iters=10)
        out = solve_G(feas, obs)
        g_energy = np.abs(roll_diff(out.data, -1, True)).sum() + np.abs(roll_diff(out.data, -2, True)).sum()
        assert g_energy <= 1e-8

    def test_non_binary_mask_rejected(self, rng):
        obs = ImageTensor(rng.uniform(size=(1, 16, 16)))
        with pytest.raises(ValidationError):
            build_inpaint(obs, 0.5 * np.ones((16, 16)), lambda1=1e-3)

    def test_mask_channels_must_match_the_image(self):
        # a 3-channel mask on a 1-channel observation once built a 3-channel problem
        _, mask, observed = inpaint_fixture(seed=5, size=16)
        with pytest.raises(ShapeError):
            build_inpaint(observed, np.stack([mask] * 3), lambda1=1e-3)

    def test_mask_size_must_match_the_image(self):
        # Mask's shape rule, raised where build_inpaint applies the mask
        _, mask, observed = inpaint_fixture(seed=5, size=16)
        with pytest.raises(ShapeError, match=r"mask \(1, 16, 8\) vs image \(1, 16, 16\)"):
            build_inpaint(observed, mask[:, :8], lambda1=1e-3)

    def test_lipschitz_is_one(self, rng):
        obs = ImageTensor(rng.uniform(size=(1, 16, 16)))
        mask = (rng.uniform(size=(16, 16)) > 0.4).astype(float)
        prob, feas = build_inpaint(obs, mask, lambda1=1e-3)
        assert prob.lipschitz == 1.0
        assert feas.fft_base is None  # a mask is not circulant: CG


def small_rain_setup(rng):
    y, xb, xr = rain_fixture(seed=7, size=32)
    w = DerainWeights()
    params = derain_params(max_iters=30, rel_tol=0.0)
    return y, xb, xr, w, params


class TestDerainStep:
    def test_objective_matches_scalar_loop(self, rng):
        y, xb, xr, w, params = small_rain_setup(rng)
        state = derain_init(y, w, params)
        got = derain_objective(y, state)
        wavelet = WaveletForward(3)
        db = wavelet.adjoint(state.beta).data
        dg = wavelet.adjoint(state.gamma).data
        want = 0.0
        for yv, bv, rv in zip(y.data.ravel(), state.x_b.data.ravel(), state.x_r.data.ravel()):
            want += 0.5 * w.recon_weight * (yv - bv - rv) ** 2
        for bv, sv in zip(state.x_b.data.ravel(), db.ravel()):
            want += 0.5 * (bv - sv) ** 2
        for rv, sv in zip(state.x_r.data.ravel(), dg.ravel()):
            want += 0.5 * (rv - sv) ** 2
        for c in state.beta.data.ravel():
            want += w.nu1 * abs(c) ** w.p1
        for c in state.gamma.data.ravel():
            want += w.nu2 * abs(c) ** w.p2
        assert got == pytest.approx(want, abs=1e-12)

    def test_objective_infinite_outside_box(self, rng):
        y, xb, xr, w, params = small_rain_setup(rng)
        state = derain_init(y, w, params)
        bad = ImageTensor(state.x_b.data + 2.0)
        from dataclasses import replace

        assert derain_objective(y, replace(state, x_b=bad)) == np.inf

    def test_rain_layer_prox_matches_grid(self, rng):
        for _ in range(60):
            c = rng.uniform(-0.8, 0.8)
            xt = rng.uniform(-0.5, 0.5)
            eta = rng.uniform(0.0, 2.0)
            rho = rng.uniform(1e-3, 0.5)
            got = float(
                rain_layer_prox(np.array([c]), np.array([xt]), eta, rho, 1.0)[0]
            )
            u = np.arange(-2.0, 2.0, 1e-5)
            obj = 0.5 * (u - c) ** 2 + 0.5 * eta * (u - xt) ** 2 + rho * np.abs(u)
            want = u[int(np.argmin(obj))]
            assert abs(got - want) <= 2e-5

    def test_rain_free_fixed_point(self, rng):
        y = synthetic_scene(32)
        w = DerainWeights(nu1=1e-4, nu2=50.0, rho2=50.0)
        params = derain_params(max_iters=10, rel_tol=0.0)
        ana = WaveletForward(3)
        zero = ImageTensor(np.zeros((1, 32, 32)))
        state = DerainState(
            x_b=y, x_r=zero, beta=ana.apply(y), gamma=ana.apply(zero),
            weights=w, mu=params.mu0, alpha=params.alpha0,
        )
        denoisers = (
            DenoiserSpec(kind="tv-rof", strength=0.0),
            DenoiserSpec(kind="tv-rof", strength=0.0),  # identity rain module
        )
        for k in range(5):
            state, _ = derain_step(y, state, denoisers, params, k)
            assert np.abs(state.x_r.data).max() == 0.0
        assert np.linalg.norm(state.x_b.data - y.data) <= 0.05 * np.linalg.norm(y.data)

    def test_box_invariants_every_iteration(self, rng):
        y, xb, xr, w, params = small_rain_setup(rng)
        state = derain_init(y, w, params)
        for k in range(10):
            state, rec = derain_step(y, state, derain_denoisers(), params, k)
            for layer in (state.x_b, state.x_r):
                assert layer.data.min() >= 0.0
                assert layer.data.max() <= 1.0


def rebuilt(state):
    """``state`` built anew on copies of its layers, so that no earlier
    step's work can fit it."""
    return DerainState(
        x_b=ImageTensor(state.x_b.data.copy()), x_r=ImageTensor(state.x_r.data.copy()),
        beta=state.beta, gamma=state.gamma, weights=state.weights,
        mu=state.mu, alpha=state.alpha, levels=state.levels,
    )


def assert_same_step(got, want):
    """Two derain_step results agree byte for byte: layers, codes, mu,
    alpha and the trace record (repr keeps every float's bits)."""
    (state, rec), (ref, ref_rec) = got, want
    for name in ("x_b", "x_r", "beta", "gamma"):
        assert getattr(state, name).data.tobytes() == getattr(ref, name).data.tobytes(), name
    assert repr((state.mu, state.alpha, rec)) == repr((ref.mu, ref.alpha, ref_rec))


def counted(calls, name, fn):
    def wrapper(*args):
        calls.append(name)
        return fn(*args)

    return wrapper


# derain_denoisers() through k=7; at k=8 only the background strength
# differs from it, at k=9 only the rain strength
SCHEDULED = (
    DenoiserSpec(kind="tv-rof", strength=(0.01,) * 8 + (0.05, 0.01)),
    DenoiserSpec(kind="wavelet-shrink", strength=(0.01,) * 9 + (0.05,)),
)


class TestDerainStepReuse:
    """A step on a state whose layers the previous step kept reuses that
    step's layer-side work; the answers are those of a recomputing step."""

    @pytest.mark.parametrize("size", [32, 64])
    def test_chain_equals_recomputed_chain(self, size):
        y, _, _ = rain_fixture(seed=42, size=size)
        params = derain_params(rel_tol=0.0)
        plain = copied = derain_init(y, DerainWeights(), params)
        branches = []
        for k in range(12):
            plain, rec = derain_step(y, plain, derain_denoisers(), params, k)
            step = derain_step(y, rebuilt(copied), derain_denoisers(), params, k)
            assert_same_step((plain, rec), step)
            copied = step[0]
            branches.append(rec.mdus_branch)
        assert MDUS_KEPT in branches[:-1]  # some step of the plain chain reused work

    @pytest.fixture(scope="class")
    def kept(self):
        """y, and the state a kept-layers step returned at k=6."""
        y, _, _ = rain_fixture(seed=42, size=64)
        params = derain_params(rel_tol=0.0)
        state = derain_init(y, DerainWeights(), params)
        for k in range(7):
            state, rec = derain_step(y, state, SCHEDULED, params, k)
        assert rec.mdus_branch == MDUS_KEPT
        return y, state

    @pytest.mark.parametrize("mu_scale,want", [(1.0, []), (0.5, ["solve_G_mu"])])
    def test_kept_state_recomputes_only_what_mu_changes(self, kept, monkeypatch, mu_scale, want):
        # a smaller mu (a BUS rejection) solves the anchored pair again from
        # the same denoised layers
        y, state = kept
        calls = []
        for module, name in ((tlf.tasks, "denoise"), (tlf.feasibility, "solve_G"), (tlf.feasibility, "solve_G_mu")):
            monkeypatch.setattr(module, name, counted(calls, name, getattr(module, name)))
        derain_step(y, replace(state, mu=mu_scale * state.mu), SCHEDULED, derain_params(rel_tol=0.0), 7)
        assert calls == want

    @pytest.mark.parametrize("change", [
        "nothing", "y", "x_b", "x_r", "weights", "levels", "mu", "background-spec", "rain-spec",
        "background-strength", "rain-strength",
    ])
    def test_changed_input_equals_rebuilt_state(self, kept, change):
        y, state = kept
        params = derain_params(rel_tol=0.0)
        n_b, n_r = SCHEDULED
        k = 7
        if change == "y":
            y = ImageTensor(0.9 * y.data)
        elif change in ("x_b", "x_r"):
            state = replace(state, **{change: ImageTensor(0.9 * getattr(state, change).data)})
        elif change == "weights":
            state = replace(state, weights=replace(state.weights, rho1=0.05))
        elif change == "levels":
            state = replace(state, levels=2)
        elif change == "mu":
            state = replace(state, mu=0.5 * state.mu)
        elif change == "background-spec":  # same strength, other kind
            n_b = DenoiserSpec(kind="median", strength=0.01)
        elif change == "rain-spec":
            n_r = DenoiserSpec(kind="median", strength=0.01)
        elif change == "background-strength":  # same specs, next strength
            k = 8
        elif change == "rain-strength":
            k = 9
        got = derain_step(y, state, (n_b, n_r), params, k)
        assert_same_step(got, derain_step(y, rebuilt(state), (n_b, n_r), params, k))

    def test_kept_state_cannot_be_written(self, kept):
        # reuse keys on the layer objects: an in-place write would make a
        # later step return the old layer's answer
        y, state = kept
        for img in (y, state.x_b, state.x_r, state.beta, state.gamma):
            with pytest.raises(ValueError):
                img.data[:] *= 0.9

    def test_failing_denoiser_is_asked_again_every_step(self, monkeypatch):
        # the denoiser fails from k=4, where seed 42 starts keeping the
        # layers: no failure is stored, so every later step asks it again
        y, _, _ = rain_fixture(seed=42, size=64)
        params = derain_params(rel_tol=0.0)
        state = derain_init(y, DerainWeights(), params)
        calls, branches, denoise = [], [], tlf.tasks.denoise

        def failing_from_4(spec, x, k):
            calls.append(k)
            if k >= 4:
                raise DenoiserError("denoiser down")
            return denoise(spec, x, k)

        monkeypatch.setattr(tlf.tasks, "denoise", failing_from_4)
        for k in range(12):
            state, rec = derain_step(y, state, derain_denoisers(), params, k)
            if k >= 4:
                assert rec.bus_branch == BUS_FALLBACK and math.isnan(rec.norm_xGmu_x)
                branches.append(rec.mdus_branch)
        # below k=4 both layers are denoised; from k=4 the background call raises
        assert calls == [0, 0, 1, 1, 2, 2, 3, 3] + list(range(4, 12))
        assert MDUS_KEPT in branches[:-1]  # some failing step ran on kept layers

    def test_new_layers_drop_the_earlier_ones(self):
        y, _, _ = rain_fixture(seed=42, size=64)
        params = derain_params(rel_tol=0.0)
        state = derain_init(y, DerainWeights(), params)
        for k in range(4):  # seed 42 takes new layers at k=0..3
            earlier = weakref.ref(state.x_b)
            state, rec = derain_step(y, state, derain_denoisers(), params, k)
            assert rec.mdus_branch != MDUS_KEPT
            gc.collect()
            assert earlier() is None, k


class TestDerainSolve:
    def test_zero_rain_input(self):
        y = synthetic_scene(64)
        params = derain_params(max_iters=40)
        state, trace = derain_solve(y, None, derain_denoisers(), params)
        energy = np.abs(state.x_r.data).sum() / (64 * 64)
        assert energy <= 1e-3

    def test_synthetic_rain_improves_background(self):
        y, xb_gt, xr_gt = rain_fixture(seed=42, size=64)
        params = derain_params(max_iters=120, rel_tol=0.0)
        state, trace = derain_solve(y, None, derain_denoisers(), params, ground_truth=xb_gt)
        assert psnr(state.x_b, xb_gt) >= psnr(y, xb_gt) + 2.0
        resid = np.linalg.norm(y.data - state.x_b.data - state.x_r.data) / np.linalg.norm(y.data)
        assert resid <= 0.1
        values = [trace.initial_F] + trace.F_values()
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10

    def test_solve_equals_manual_steps(self):
        y, xb_gt, _ = rain_fixture(seed=42, size=64)
        params = derain_params(max_iters=3, rel_tol=0.0)
        denoisers = derain_denoisers()
        got, trace = derain_solve(y, None, denoisers, params, ground_truth=xb_gt)
        state = derain_init(y, DerainWeights(), params)
        records = []
        for k in range(3):
            state, rec = derain_step(y, state, denoisers, params, k)
            records.append(rec)
        for name in ("x_b", "x_r", "beta", "gamma"):
            assert np.array_equal(getattr(got, name).data, getattr(state, name).data)
        assert (got.mu, got.alpha) == (state.mu, state.alpha)
        assert len(trace) == 3
        for solved, stepped in zip(trace, records):
            # derain_step leaves the change and the PSNR to the driver
            assert math.isnan(stepped.rel_err) and stepped.psnr is None
            assert solved.rel_err > 0.0 and solved.psnr is not None
            assert (solved.F_value, solved.mdus_branch) == (stepped.F_value, stepped.mdus_branch)
        assert trace.final().psnr == psnr(got.x_b, xb_gt)

    def test_kept_layers_leave_layers_unchanged(self):
        y, _, _ = rain_fixture(seed=42, size=64)
        params = derain_params(max_iters=8, rel_tol=0.0)
        state = derain_init(y, DerainWeights(), params)
        kept = 0
        for k in range(params.max_iters):
            new, rec = derain_step(y, state, derain_denoisers(), params, k)
            assert rec.mdus_branch in MDUS_BRANCHES
            if rec.mdus_branch == MDUS_KEPT:
                kept += 1
                assert np.array_equal(new.x_b.data, state.x_b.data)
                assert np.array_equal(new.x_r.data, state.x_r.data)
            state = new
        assert kept > 0

    def test_denoiser_failure_becomes_bus_fallback(self, tmp_path):
        y, _, _ = rain_fixture(seed=42, size=32)
        params = derain_params(max_iters=4, rel_tol=0.0)
        missing = DenoiserSpec(kind="external", command=str(tmp_path / "no-such-denoiser"), strength=1.0)
        state = derain_init(y, DerainWeights(), params)
        for k in range(params.max_iters):
            new, rec = derain_step(y, state, (missing, missing), params, k)
            assert rec.bus_branch == BUS_FALLBACK
            assert math.isnan(rec.norm_xGmu_x)
            # one weight anchors both layers: the record shows it, BUS decays it
            assert rec.mu == state.mu
            assert new.mu == params.beta * state.mu
            state = new

    def test_eta_underflow_keeps_running(self):
        y, _, _ = rain_fixture(seed=42, size=32)
        params = replace(derain_params(max_iters=30, rel_tol=0.0), mu0=1e-320, bus_c=1e-9)
        state = derain_init(y, DerainWeights(), params)
        for k in range(params.max_iters):
            state, rec = derain_step(y, state, derain_denoisers(), params, k)
            assert rec.bus_branch == BUS_FALLBACK
        assert state.mu == 0.0

    def test_init_levels_reach_the_steps(self):
        # 20 is divisible by 4 but not by 8: only a 2-level state can step
        y, _, _ = rain_fixture(seed=42, size=20)
        params = derain_params(max_iters=2, rel_tol=0.0)
        state = derain_init(y, DerainWeights(), params, levels=2)
        assert state.levels == 2
        assert state.beta.data.shape == WaveletForward(2).apply(y).data.shape
        tv = DenoiserSpec(kind="tv-rof", strength=0.01)
        new, trace = derain_solve(y, state, (tv, tv), params)
        assert new.levels == 2 and len(trace) == 2

    def test_out_of_box_init_rejected(self):
        y = synthetic_scene(32)
        params = derain_params(max_iters=5)
        w = DerainWeights()
        state = derain_init(y, w, params)
        bad = replace(state, x_r=ImageTensor(state.x_r.data + 1.5))
        with pytest.raises(ValidationError):
            derain_solve(y, bad, derain_denoisers(), params)

    @pytest.mark.parametrize("key,value", [("nu1", -1.0), ("recon_weight", -1.0), ("p2", 0.3), ("rho1", 0.0)])
    def test_weights_name_the_bad_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            DerainWeights(**{key: value})

    def test_rain_estimate_is_boxed(self):
        y, _, _ = rain_fixture(seed=9, size=32)
        est = estimate_rain_layer(y)
        assert est.data.min() >= 0.0 and est.data.max() <= 1.0
