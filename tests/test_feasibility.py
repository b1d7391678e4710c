import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from tlf.errors import ConfigError, NumericalError, ValidationError
from tlf import feasibility, tensor
from tlf.feasibility import FeasibilityModel, _cg_solve, _jacobi_diagonal, solve_G, solve_G_mu
from tlf.fixtures import (
    DEBLUR_WEIGHTS,
    INPAINT_WEIGHTS,
    deblur_fixture,
    derain_params,
    inpaint_fixture,
    rain_fixture,
)
from tlf.prox import SUPPORTED_P
from tlf.tasks import DerainWeights, _background_model, build_deblur, build_inpaint, derain_init
from tlf.tensor import BlurKernel, CircularConvolution, Identity, ImageTensor, LinearOperator, Mask

from conftest import checked_hqs, hqs_energy, normal_apply, random_image, reference_hqs, roll_diff


class Opaque(LinearOperator):
    """An operator behind a wrapper that states neither its circulant form
    nor its Gram diagonal."""

    def __init__(self, op):
        self.op = op

    def _apply(self, a):
        return self.op._apply(a)

    def _adjoint(self, a):
        return self.op._adjoint(a)


def blur_model(rng, h=16, w=16, **kw):
    op = CircularConvolution(BlurKernel.gaussian(5, 1.2))
    b = random_image(rng, h, w)
    defaults = dict(tv_weight=5e-3, tv_q=1.0, hqs_iters=4)
    defaults.update(kw)
    return FeasibilityModel(data_op=op, observation=b, **defaults)


def as_cg(model, **kw):
    """The same circulant system behind a non-circulant operator, so CG solves it."""
    return replace(model, data_op=Opaque(model.data_op), **kw)


class TestModelValidation:
    def test_bad_rho(self, rng):
        with pytest.raises(ConfigError):
            blur_model(rng, hqs_rho=0.0)

    def test_bad_cg_settings(self, rng):
        for t in (float("nan"), float("inf"), 0.0, -1e-8):
            with pytest.raises(ConfigError):
                blur_model(rng, cg_tol=t)

    def test_solver_follows_the_operator(self, rng):
        assert blur_model(rng).fft_base is not None
        assert as_cg(blur_model(rng)).fft_base is None

    @pytest.mark.parametrize("name", ["identity", "conv", "mask", "opaque"])
    def test_operators_state_their_gram_spectrum(self, rng, name):
        h, w = 6, 8
        kernel = BlurKernel.gaussian(5, 1.2)
        op = {
            "identity": Identity(),
            "conv": CircularConvolution(kernel),
            "mask": Mask((rng.uniform(size=(h, w)) > 0.4).astype(float)),
            "opaque": Opaque(CircularConvolution(kernel)),
        }[name]
        got = op.gram_spectrum(h, w)
        if name in ("identity", "conv"):
            # |rfft2|^2 of the kernel embedded centred at the origin of the grid
            taps = kernel.taps if name == "conv" else np.ones((1, 1))
            kh, kw = taps.shape
            embedded = np.zeros((h, w))
            embedded[:kh, :kw] = taps
            embedded = np.roll(embedded, (-(kh // 2), -(kw // 2)), axis=(0, 1))
            want = np.abs(np.fft.rfft2(embedded)) ** 2
            assert np.array_equal(np.broadcast_to(got, want.shape), want)
        else:
            assert got is None
        model = FeasibilityModel(data_op=op, observation=random_image(rng, h, w), tv_weight=5e-3)
        assert (model.fft_base is None) == (got is None)

    def test_anchor_preconditions(self, rng):
        model = blur_model(rng)
        x = random_image(rng)
        for mu in (-1.0, -1e-300, float("nan")):
            with pytest.raises(ValidationError):
                solve_G_mu(model, x, x, mu)
        with pytest.raises(ValidationError):
            solve_G_mu(model, x, random_image(rng, 8, 8), 0.5)  # anchor shape

    def test_warm_start_shape_is_a_data_error(self, rng):
        model = blur_model(rng)
        x, small = random_image(rng), random_image(rng, 8, 8)
        for solve in (lambda: solve_G(model, small), lambda: solve_G_mu(model, small, x, 0.5)):
            with pytest.raises(ValidationError, match=r"\(1, 8, 8\).*\(1, 16, 16\)"):
                solve()


class TestSolveG:
    def test_identity_no_tv_returns_b(self, rng):
        b = random_image(rng, 8, 8)
        model = FeasibilityModel(
            data_op=Identity(), observation=b, tv_weight=0.0, hqs_iters=1
        )
        out = solve_G(model, b)  # warm start at the observation
        assert np.abs(out.data - b.data).max() <= 1e-10

    def test_identity_no_tv_converges_from_cold_start(self, rng):
        b = random_image(rng, 8, 8)
        model = FeasibilityModel(
            data_op=Identity(), observation=b, tv_weight=0.0, hqs_iters=60
        )
        out = solve_G(model, ImageTensor(np.zeros((1, 8, 8))))
        assert np.abs(out.data - b.data).max() <= 1e-6

    def test_constant_observation_stays_constant(self):
        b = ImageTensor(np.full((1, 8, 8), 0.42))
        model = FeasibilityModel(data_op=Identity(), observation=b, tv_weight=0.01)
        out = solve_G(model, b)
        assert np.abs(out.data - 0.42).max() <= 1e-10

    @pytest.mark.parametrize("solver", ["fft", "cg"])
    def test_normal_equation_residual(self, rng, solver):
        model = blur_model(rng)
        if solver == "cg":
            model = as_cg(model)
        x, _, rhs = checked_hqs(model, model.observation)
        res = normal_apply(model, x) - rhs
        rel = np.linalg.norm(res) / np.linalg.norm(rhs)
        assert rel <= (1e-8 if solver == "fft" else model.cg_tol)

    def test_cg_residual_with_mask(self, rng):
        mask = (rng.uniform(size=(16, 16)) > 0.4).astype(float)
        model = FeasibilityModel(
            data_op=Mask(mask),
            observation=random_image(rng, 16, 16),
            tv_weight=5e-3,
            hqs_iters=3,
            cg_tol=1e-8,
        )
        x, _, rhs = checked_hqs(model, model.observation)
        res = normal_apply(model, x) - rhs
        assert np.linalg.norm(res) / np.linalg.norm(rhs) <= model.cg_tol

    def test_fft_and_cg_agree_on_circulant(self, rng):
        m_fft = blur_model(rng)
        m_cg = as_cg(m_fft, cg_tol=1e-10)
        x0 = m_fft.observation
        a = solve_G(m_fft, x0)
        b = solve_G(m_cg, x0)
        assert np.linalg.norm(a.data - b.data) <= 1e-6 * np.linalg.norm(a.data)

    def test_energy_nonincreasing_per_alternation(self, rng):
        model = blur_model(rng, hqs_iters=8, tv_weight=2e-2)
        _, log, _ = checked_hqs(model, model.observation)
        for a, b in zip(log, log[1:]):
            assert b <= a + 1e-10

    def test_deterministic_bitwise(self, rng):
        model = blur_model(rng, hqs_iters=3)
        x0 = random_image(rng)
        a = solve_G(model, x0)
        b = solve_G(model, x0)
        assert np.array_equal(a.data, b.data)

    def test_cg_iteration_cap_raises(self, rng, monkeypatch):
        # A tiny cg_tol alone ends CG where p^T A p reaches 0 (327 matvecs
        # here), short of the cap; the solve reads the cap at call time.
        monkeypatch.setattr(feasibility, "CG_MAX_ITERS", 2)
        mask = (rng.uniform(size=(16, 16)) > 0.4).astype(float)
        model = FeasibilityModel(
            data_op=Mask(mask),
            observation=random_image(rng, 16, 16),
            tv_weight=5e-3,
            hqs_iters=1,
            cg_tol=1e-12,
        )
        with pytest.raises(NumericalError) as err:
            solve_G(model, ImageTensor(np.zeros((1, 16, 16))))
        assert err.value.residual is not None and err.value.residual > 1e-12


class TestCgSolve:
    """CG updates the x it is given and returns it."""

    def test_updates_x_in_place(self, rng):
        rhs = rng.standard_normal((1, 6, 8))
        x = np.zeros_like(rhs)
        assert _cg_solve(lambda v: 2.0 * v, rhs, x, 1e-10, 10, 2.0) is x
        assert np.allclose(x, 0.5 * rhs, rtol=1e-12, atol=0.0)

    def test_zero_rhs_sets_x_to_zero(self, rng):
        x = rng.standard_normal((1, 6, 8))
        assert _cg_solve(lambda v: 2.0 * v, np.zeros_like(x), x, 1e-10, 10, 2.0) is x
        assert not np.signbit(x).any() and not x.any()


class TestNormalOperator:
    """The CG matvec, which runs inside the solve, equals the oracle
    normal_apply bit for bit: the solves match the reference that runs CG on
    normal_apply byte for byte. The identity and the convolution sit behind
    Opaque, so CG solves them too."""

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("data_op", ["mask", "identity", "conv"])
    def test_equal_to_oracle(self, rng, data_op, channels):
        h, w = 12, 16
        make = {
            "mask": lambda: Mask((rng.uniform(size=(h, w)) > 0.4).astype(float)),
            "identity": lambda: Opaque(Identity()),
            "conv": lambda: Opaque(CircularConvolution(BlurKernel.gaussian(5, 1.2))),
        }[data_op]
        model = FeasibilityModel(
            data_op=make(),
            observation=random_image(rng, h, w, c=channels),
            tv_weight=5e-3,
            hqs_rho=0.08,
            hqs_iters=2,
        )
        assert model.fft_base is None
        x0, anchor = random_image(rng, h, w, c=channels), random_image(rng, h, w, c=channels)
        checked_hqs(model, x0)
        checked_hqs(model, x0, anchor, 0.7)


def probed_diagonal(apply, shape):
    """diag of a linear map, read off its images of the unit vectors."""
    diag = np.empty(shape)
    for idx in np.ndindex(*shape):
        e = np.zeros(shape)
        e[idx] = 1.0
        diag[idx] = apply(e)[idx]
    return diag


def mask_model(rng, h, w, channels=1, **kw):
    mask = (rng.uniform(size=(h, w)) > 0.4).astype(float)
    mask.flat[0] = 0.0  # one missing pixel at least
    return FeasibilityModel(
        data_op=Mask(mask), observation=random_image(rng, h, w, c=channels), tv_weight=5e-3, **kw
    )


class TestJacobiPreconditioner:
    """D is the diagonal of the CG normal operator."""

    @pytest.mark.parametrize("mu", [0.0, 0.7])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("h,w", [(1, 8), (8, 1), (6, 8)])
    def test_equal_to_unit_probes(self, rng, h, w, channels, mu):
        model = mask_model(rng, h, w, channels, hqs_rho=0.08)
        shape = (channels, h, w)
        want = probed_diagonal(lambda e: normal_apply(model, e, mu), shape)
        got = np.broadcast_to(_jacobi_diagonal(model, mu), shape)
        assert np.array_equal(got, want)

    # Only CG reads the Gram diagonal, and CG runs only on operators without
    # a gram_spectrum, so of the package's operators only the mask states one.
    @pytest.mark.parametrize("make", [lambda m: Mask(m)], ids=["mask"])
    def test_operators_state_their_gram_diagonal(self, rng, make):
        op = make((rng.uniform(size=(6, 8)) > 0.4).astype(float))
        want = probed_diagonal(lambda e: op._adjoint(op._apply(e)), (1, 6, 8))
        got = np.broadcast_to(op.gram_diagonal(), want.shape)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_unknown_gram_diagonal_counts_as_one(self, rng):
        model = as_cg(blur_model(rng, hqs_rho=0.08))
        assert Opaque(Identity()).gram_diagonal() is None
        assert _jacobi_diagonal(model, 0.5) == pytest.approx(1.0 + 4 * 0.16 + 0.5, rel=1e-15)

    @pytest.mark.parametrize("h,w", [(1, 8), (8, 1)])
    def test_one_pixel_wide_mask_solves_to_tol(self, rng, h, w):
        model = mask_model(rng, h, w, channels=3, hqs_iters=3)
        for mu in (0.0, 0.7):
            x, _, rhs = checked_hqs(model, model.observation, random_image(rng, h, w, c=3), mu)
            res = normal_apply(model, x, mu) - rhs
            assert np.linalg.norm(res) / np.linalg.norm(rhs) <= model.cg_tol


class TestBufferedAlternation:
    """solve_G and solve_G_mu equal the allocating alternation byte for byte,
    after each of the first four alternations."""

    @pytest.mark.parametrize("mu", [0.0, 0.7])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("q", SUPPORTED_P, ids=["q0", "q1/2", "q2/3", "q1"])
    @pytest.mark.parametrize("data_op", ["conv", "identity", "mask"])
    def test_equal_to_reference(self, rng, data_op, q, channels, mu):
        h, w = 12, 16
        make = {
            "conv": lambda: CircularConvolution(BlurKernel.gaussian(5, 1.2)),
            "identity": Identity,
            "mask": lambda: Mask((rng.uniform(size=(h, w)) > 0.4).astype(float)),
        }[data_op]
        base = FeasibilityModel(
            data_op=make(),
            observation=random_image(rng, h, w, c=channels),
            tv_weight=2e-2,
            tv_q=q,
        )
        x0, anchor = random_image(rng, h, w, c=channels), random_image(rng, h, w, c=channels)
        for iters in range(1, 5):
            model = replace(base, hqs_iters=iters)
            want = reference_hqs(model, x0, anchor, mu)[0].tobytes()
            assert solve_G_mu(model, x0, anchor, mu).data.tobytes() == want
            if mu == 0.0:
                assert solve_G(model, x0).data.tobytes() == want

    # Odd sides exercise the rfft grid's W//2 + 1 columns and irfft(n=W).
    @pytest.mark.parametrize("mu", [0.0, 0.7])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("data_op", ["conv", "identity"])
    @pytest.mark.parametrize("h,w", [(9, 15), (15, 9)])
    def test_odd_sides_equal_to_reference(self, rng, h, w, data_op, channels, mu):
        make = {"conv": lambda: CircularConvolution(BlurKernel.gaussian(5, 1.2)), "identity": Identity}[data_op]
        model = FeasibilityModel(
            data_op=make(), observation=random_image(rng, h, w, c=channels), tv_weight=2e-2, hqs_iters=4
        )
        x0, anchor = random_image(rng, h, w, c=channels), random_image(rng, h, w, c=channels)
        want = reference_hqs(model, x0, anchor, mu)[0].tobytes()
        assert solve_G_mu(model, x0, anchor, mu).data.tobytes() == want
        if mu == 0.0:
            assert solve_G(model, x0).data.tobytes() == want

    def test_fft_solve_reuses_its_buffers(self, rng, monkeypatch):
        """Every alternation's spectrum goes into one buffer, and its inverse
        transform into the x the solve returns."""
        rfft_outs, irfft_outs = [], []
        rfft2, irfft2 = tensor.rfft2, tensor.irfft2

        def spy_rfft2(a, out=None):
            rfft_outs.append(out)
            return rfft2(a, out=out)

        def spy_irfft2(spectrum, width, out=None):
            irfft_outs.append(out)
            return irfft2(spectrum, width, out=out)

        model = blur_model(rng, 32, 32, hqs_iters=10)  # K^T b is made here, before the spies
        monkeypatch.setattr(tensor, "rfft2", spy_rfft2)
        monkeypatch.setattr(tensor, "irfft2", spy_irfft2)
        x = solve_G(model, model.observation)
        assert len(rfft_outs) == len(irfft_outs) == 10
        assert rfft_outs[0] is not None and all(out is rfft_outs[0] for out in rfft_outs)
        assert all(out is not None and np.shares_memory(out, x.data) for out in irfft_outs)


class TestSharedModel:
    """Threads that share one model get their single-threaded answers: every
    HQS and CG buffer belongs to one solve call."""

    @staticmethod
    def assert_threads_agree(model, x0, anchor):
        jobs = [lambda: solve_G(model, x0), lambda: solve_G_mu(model, x0, anchor, 0.5)] * 2
        want = [job().data for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(job) for job in jobs]
                got = [f.result(timeout=120).data for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_threads_share_one_cg_model(self):
        gt, mask, observed = inpaint_fixture(seed=5, size=32)
        _, model = build_inpaint(observed, mask, **INPAINT_WEIGHTS)
        self.assert_threads_agree(model, observed, gt)

    def test_threads_share_one_deblur_fft_model(self):
        gt, kernel, blurry = deblur_fixture(seed=5, size=32)
        _, model = build_deblur(blurry, kernel, **DEBLUR_WEIGHTS)
        assert isinstance(model.data_op, CircularConvolution)
        self.assert_threads_agree(model, blurry, gt)

    def test_threads_share_one_derain_background_model(self):
        y, x_b, _ = rain_fixture(seed=5, size=32)
        state = derain_init(y, DerainWeights(), derain_params())
        model = _background_model(y, state.x_r, state.weights)
        assert isinstance(model.data_op, Identity)
        self.assert_threads_agree(model, state.x_b, x_b)


class TestSolveGMu:
    def test_huge_mu_returns_anchor(self, rng):
        model = blur_model(rng)
        target = random_image(rng)
        out = solve_G_mu(model, model.observation, target, 1e8)
        rel = np.linalg.norm(out.data - target.data) / np.linalg.norm(target.data)
        assert rel <= 1e-4

    def test_residual_includes_mu_term(self, rng):
        model = blur_model(rng)
        x, _, rhs = checked_hqs(model, model.observation, random_image(rng), 0.7)
        res = normal_apply(model, x, mu=0.7) - rhs
        assert np.linalg.norm(res) / np.linalg.norm(rhs) <= 1e-8

    def test_energy_nonincreasing_with_anchor(self, rng):
        model = blur_model(rng, hqs_iters=6)
        _, log, _ = checked_hqs(model, model.observation, random_image(rng), 0.3)
        for a, b in zip(log, log[1:]):
            assert b <= a + 1e-10

    @pytest.mark.parametrize("solver", ["fft", "cg"])
    def test_mu_zero_is_solve_G(self, rng, solver):
        # a BUS weight that decays to 0 leaves the unanchored solve
        model = blur_model(rng)
        if solver == "cg":
            model = as_cg(model)
        x0, anchor = random_image(rng), random_image(rng)
        got = solve_G_mu(model, x0, anchor, 0.0)
        assert np.array_equal(got.data, solve_G(model, x0).data)


def conv_model(b, sigma=1.2, **kw):
    """A model built from scratch, sharing no operator with any other."""
    op = CircularConvolution(BlurKernel.gaussian(5, sigma))
    return FeasibilityModel(data_op=op, observation=b, tv_weight=5e-3, hqs_iters=4, **kw)


class TestPrecomputedSpectra:
    @pytest.mark.parametrize("data_op", ["identity", "conv"])
    def test_three_channels_equal_stacked_channels(self, rng, data_op):
        def make(b):
            if data_op == "conv":
                return conv_model(b)
            return FeasibilityModel(data_op=Identity(), observation=b, tv_weight=5e-3, hqs_iters=4)

        b, x0, anchor = (random_image(rng, 12, 16, c=3) for _ in range(3))
        model = make(b)
        got_g = solve_G(model, x0).data
        got_mu = solve_G_mu(model, x0, anchor, 0.7).data
        for c in range(3):
            b_c, x0_c, anchor_c = (ImageTensor(t.data[c]) for t in (b, x0, anchor))
            model_c = make(b_c)
            assert np.array_equal(got_g[c], solve_G(model_c, x0_c).data[0])
            want_mu = solve_G_mu(model_c, x0_c, anchor_c, 0.7).data[0]
            assert np.array_equal(got_mu[c], want_mu)

    def test_models_of_one_shape_keep_their_own_spectra(self, rng):
        b, x0 = random_image(rng), random_image(rng)
        sigmas = (0.8, 2.0)
        want = [solve_G(conv_model(b, s), x0).data for s in sigmas]
        models = [conv_model(b, s) for s in sigmas]
        for _ in range(2):
            for model, w in zip(models, want):
                x, _, rhs = checked_hqs(model, x0)
                assert np.array_equal(x, w)
                # the references were built at the same shape too, so also
                # check each solve against its own kernel's normal equation
                res = normal_apply(model, x) - rhs
                assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(rhs)


class TestEnergy:
    def test_energy_matches_hand_sum(self, rng):
        model = blur_model(rng, h=8, w=8)
        x = random_image(rng, 8, 8).data
        zh = rng.standard_normal((1, 8, 8))
        zv = rng.standard_normal((1, 8, 8))
        got = hqs_energy(model, x, zh, zv)
        k = model.data_op
        rho = model.hqs_rho
        want = 0.5 * np.sum((k._apply(x) - model.observation.data) ** 2)
        want += rho * np.sum((zh - roll_diff(x, -1, True)) ** 2)
        want += rho * np.sum((zv - roll_diff(x, -2, True)) ** 2)
        want += model.tv_weight * (np.abs(zh).sum() + np.abs(zv).sum())
        assert got == pytest.approx(want, rel=1e-12)
