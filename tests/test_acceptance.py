"""Acceptance suite: one test per shipped criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The deblur/inpaint/derain fixtures and solver settings are the
frozen ones from tlf.fixtures.
"""

import time

import numpy as np
import pytest

from tlf.denoise import DenoiserSpec, external_roundtrip
from tlf.engine import dtlf_solve, tlf_solve
from tlf.errors import DenoiserError
from tlf.feasibility import FeasibilityModel, solve_G
from tlf.fixtures import (
    DEBLUR_WEIGHTS,
    INPAINT_WEIGHTS,
    deblur_denoiser,
    deblur_fixture,
    deblur_params,
    derain_denoisers,
    derain_params,
    inpaint_denoiser,
    inpaint_fixture,
    inpaint_params,
    rain_fixture,
)
from tlf.formats import write_kernel, write_tlft
from tlf.metrics import psnr
from tlf.problem import solve_baseline
from tlf.prox import ProxSpec, prox_lp_array
from tlf.tasks import (
    DerainWeights,
    build_deblur,
    build_inpaint,
    derain_init,
    derain_step,
)
from tlf.tensor import (
    BlurKernel,
    CircularConvolution,
    GradientH,
    GradientV,
    Identity,
    ImageTensor,
    Mask,
    WaveletForward,
    WaveletInverse,
)

from conftest import naive_circ_conv


def report(name, detail):
    print(f"\nPASS {name}: {detail}")


@pytest.fixture(scope="module")
def deblur_setup():
    gt, kernel, blurry = deblur_fixture(seed=42, size=64, noise_percent=1.0)
    prob, feas = build_deblur(blurry, kernel, **DEBLUR_WEIGHTS)
    return gt, kernel, blurry, prob, feas


@pytest.fixture(scope="module")
def tlf_200(deblur_setup):
    gt, _, _, prob, feas = deblur_setup
    start = time.perf_counter()
    x, trace = tlf_solve(prob, feas, deblur_params(max_iters=200, rel_tol=0.0))
    return x, trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def dtlf_200(deblur_setup):
    gt, _, _, prob, feas = deblur_setup
    start = time.perf_counter()
    x, trace = dtlf_solve(
        prob, feas, deblur_denoiser(), deblur_params(max_iters=200, rel_tol=0.0)
    )
    return x, trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def pg_200(deblur_setup):
    gt, _, _, prob, feas = deblur_setup
    x, trace = solve_baseline(prob, "pg", deblur_params(max_iters=200, rel_tol=0.0))
    return x, trace


@pytest.fixture(scope="module")
def inpaint_run():
    gt, mask, observed = inpaint_fixture(seed=42, size=64, missing_fraction=0.4)
    prob, feas = build_inpaint(observed, mask, **INPAINT_WEIGHTS)
    x, trace = dtlf_solve(prob, feas, inpaint_denoiser(), inpaint_params())
    return gt, mask, observed, prob, x, trace


@pytest.fixture(scope="module")
def derain_run():
    y, xb_gt, xr_gt = rain_fixture(seed=42, size=64)
    params = derain_params(max_iters=120, rel_tol=0.0)
    weights = DerainWeights()
    state = derain_init(y, weights, params)
    states = [state]
    trace_records = []
    for k in range(params.max_iters):
        state, rec = derain_step(y, state, derain_denoisers(), params, k)
        states.append(state)
        trace_records.append(rec)
    return y, xb_gt, xr_gt, states, trace_records


def _check_descent(trace, sigma, slack=1e-10):
    prev = trace.initial_F
    for rec in trace:
        if rec.F_value > prev - sigma * rec.norm_xF_x ** 2 + slack:
            return False, rec.k
        prev = rec.F_value
    return True, None


class TestSufficientDescent:
    def test_tlf_and_dtlf_descent_and_runtime(self, deblur_setup, tlf_200, dtlf_200):
        _, _, _, prob, _ = deblur_setup
        t = deblur_params().resolve_step(prob.lipschitz)
        sigma = 1.0 / (2.0 * t) - prob.lipschitz / 2.0
        for label, (x, trace, elapsed) in (("TLF", tlf_200), ("DTLF", dtlf_200)):
            ok, bad_k = _check_descent(trace, sigma)
            assert ok, f"{label} violated sufficient descent at k={bad_k}"
            assert len(trace) == 200
            assert elapsed < 30.0, f"{label} took {elapsed:.1f}s for 200 iterations"
        report(
            "sufficient-descent",
            f"sigma={sigma:.6f}, 200 TLF+DTLF iterations, "
            f"{tlf_200[2] + dtlf_200[2]:.1f}s total",
        )


class TestMonotonicity:
    def test_all_fixture_traces_nonincreasing(self, tlf_200, dtlf_200, inpaint_run, derain_run):
        traces = {
            "deblur-tlf": ([tlf_200[1].initial_F] + tlf_200[1].F_values()),
            "deblur-dtlf": ([dtlf_200[1].initial_F] + dtlf_200[1].F_values()),
            "inpaint-dtlf": [r.F_value for r in inpaint_run[5]],
            "derain": [r.F_value for r in derain_run[4]],
        }
        total = 0
        for name, values in traces.items():
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-10, f"{name} increased F"
                total += 1
        report("monotonicity", f"{total} consecutive F pairs nonincreasing across 4 traces")


class TestBoundedness:
    def test_accepted_records_reverify(self, dtlf_200, inpaint_run, derain_run):
        params = deblur_params()
        checked = 0
        for rec in list(dtlf_200[1]) + list(inpaint_run[5]) + list(derain_run[4]):
            if rec.bus_branch == "accepted-z":
                assert rec.norm_xGmu_x <= params.bus_c * rec.norm_xG_x
                checked += 1
        accepted = checked
        assert accepted > 0, "no accepted-z records to re-verify"
        report("boundedness", f"{accepted} accepted-z records re-verified against C=1.5")


class TestConvergence:
    def test_tlf_reaches_stop_criterion(self, deblur_setup):
        _, _, _, prob, feas = deblur_setup
        x, trace = tlf_solve(prob, feas, deblur_params(max_iters=500, rel_tol=5e-4))
        assert trace.final().rel_err <= 5e-4
        assert len(trace) <= 500
        report(
            "convergence",
            f"rel_err {trace.final().rel_err:.2e} <= 5e-4 after {len(trace)} iterations",
        )


class TestProxOracle:
    def test_thousand_cases_per_exponent(self):
        rng = np.random.default_rng(2024)
        grid = np.append(np.arange(-2.0, 2.0 + 5e-6, 1e-5), 0.0)
        total = 0
        for p in (0.0, 0.5, 2.0 / 3.0, 1.0):
            penalty = (grid != 0.0) if p == 0.0 else np.abs(grid) ** p
            v = rng.uniform(-1.8, 1.8, size=1000)
            tau = rng.uniform(1e-3, 1.0, size=1000)
            for chunk in range(0, 1000, 100):
                vs = v[chunk : chunk + 100]
                ts = tau[chunk : chunk + 100]
                obj = ts[:, None] * penalty[None, :] + 0.5 * (
                    grid[None, :] - vs[:, None]
                ) ** 2
                want = grid[np.argmin(obj, axis=1)]
                got = np.array(
                    [
                        prox_lp_array(np.array([vv]), ProxSpec(p, tt))[0]
                        for vv, tt in zip(vs, ts)
                    ]
                )
                assert np.abs(got - want).max() <= 2e-5
                total += len(vs)
        report("prox-oracle", f"{total} randomized cases matched grid argmin within 2e-5")


class TestOperatorSuite:
    def test_adjoints_fft_wavelet(self):
        rng = np.random.default_rng(77)
        ops = [
            Identity(),
            CircularConvolution(BlurKernel(rng.standard_normal((5, 5)), normalize=False)),
            Mask((rng.uniform(size=(16, 16)) > 0.5).astype(float)),
            GradientH(),
            GradientV(),
            WaveletForward(2),
            WaveletInverse(2),
        ]
        for op in ops:
            for _ in range(10):
                x = ImageTensor(rng.standard_normal((1, 16, 16)))
                y = ImageTensor(rng.standard_normal((1, 16, 16)))
                lhs = float(np.vdot(op.apply(x).data, y.data).real)
                rhs = float(np.vdot(x.data, op.adjoint(y).data).real)
                assert abs(lhs - rhs) <= 1e-8 * (op.apply(x).norm() * y.norm() + 1e-30)

        # frequency-domain vs direct spatial convolution on small grids
        for h, w, ks in ((8, 8, 3), (16, 16, 5), (12, 16, 5)):
            x = rng.standard_normal((h, w))
            op = CircularConvolution(
                BlurKernel(rng.standard_normal((ks, ks)), normalize=False)
            )
            got = op.apply(ImageTensor(x)).data[0]
            want = naive_circ_conv(x, op.kernel.taps)
            assert np.abs(got - want).max() <= 1e-10

        for _ in range(5):
            x = ImageTensor(rng.standard_normal((1, 32, 32)))
            c = WaveletForward(3).apply(x)
            back = WaveletInverse(3).apply(c)
            assert np.abs(back.data - x.data).max() <= 1e-10
            assert abs(c.norm() - x.norm()) <= 1e-10 * x.norm()
        report("operator-suite", "adjoint 1e-8, conv fft-vs-direct 1e-10, wavelet 1e-10")


class TestHqsResidual:
    def test_fft_and_cg_normal_equations(self):
        rng = np.random.default_rng(99)
        gh, gv = GradientH(), GradientV()

        def residual(model, x, aux, mu=0.0):
            k = model.data_op
            rh, rv = model.hqs_rho
            mx = k._adjoint(k._apply(x.data))
            mx += 2.0 * rh * gh._adjoint(gh._apply(x.data))
            mx += 2.0 * rv * gv._adjoint(gv._apply(x.data))
            mx += mu * x.data
            return np.linalg.norm(mx - aux["rhs"]) / np.linalg.norm(aux["rhs"])

        for trial in range(5):
            b = ImageTensor(rng.uniform(size=(1, 16, 16)))
            conv = CircularConvolution(BlurKernel.gaussian(5, 1.0 + 0.2 * trial))
            m_fft = FeasibilityModel(
                data_op=conv, observation=b, tv_weight=5e-3, hqs_iters=3, x_solver="fft"
            )
            aux = {}
            x = solve_G(m_fft, b, aux=aux)
            assert residual(m_fft, x, aux) <= 1e-8

            mask = Mask((rng.uniform(size=(16, 16)) > 0.4).astype(float))
            m_cg = FeasibilityModel(
                data_op=mask, observation=b, tv_weight=5e-3, hqs_iters=3,
                x_solver="cg", cg_tol=1e-8,
            )
            aux = {}
            x = solve_G(m_cg, b, aux=aux)
            assert residual(m_cg, x, aux) <= m_cg.cg_tol
        report("hqs-residual", "normal-equation residuals <= 1e-8 (fft) / cg_tol (cg), 5 trials each")


class TestOrdering:
    def test_psnr_ordering_at_fixed_budget(self, deblur_setup, tlf_200, dtlf_200, pg_200):
        gt, _, blurry, prob, _ = deblur_setup
        p_pg = psnr(prob.to_image(pg_200[0]), gt)
        p_tlf = psnr(prob.to_image(tlf_200[0]), gt)
        p_dtlf = psnr(prob.to_image(dtlf_200[0]), gt)
        assert p_dtlf >= p_tlf >= p_pg
        assert p_dtlf - p_pg >= 0.3
        report(
            "ordering",
            f"PG {p_pg:.3f} <= TLF {p_tlf:.3f} <= DTLF {p_dtlf:.3f} dB "
            f"(DTLF-PG = {p_dtlf - p_pg:.3f} >= 0.3)",
        )


class TestInpainting:
    def test_masked_region_gain(self, inpaint_run):
        gt, mask, observed, prob, x, trace = inpaint_run
        missing = np.broadcast_to(mask[None] == 0.0, gt.shape)
        base = psnr(observed, gt, mask=missing)
        restored = prob.to_image(x)
        got = psnr(restored, gt, mask=missing)
        assert len(trace) <= 300
        assert got >= base + 5.0
        report(
            "inpainting",
            f"masked-region PSNR {got:.2f} vs zero-filled {base:.2f} "
            f"(+{got - base:.2f} dB in {len(trace)} iterations)",
        )


class TestDerain:
    def test_background_gain_box_and_residual(self, derain_run):
        y, xb_gt, _, states, recs = derain_run
        rainy = psnr(y, xb_gt)
        final = states[-1]
        got = psnr(final.x_b, xb_gt)
        assert got >= rainy + 2.0
        for state in states:
            for layer in (state.x_b, state.x_r):
                assert layer.data.min() >= 0.0
                assert layer.data.max() <= 1.0
        resid = float(
            np.linalg.norm(y.data - final.x_b.data - final.x_r.data)
            / np.linalg.norm(y.data)
        )
        assert resid <= 0.1
        report(
            "derain",
            f"background {got:.2f} vs rainy {rainy:.2f} dB, layers boxed at "
            f"{len(states)} states, layer-sum residual {resid:.3f} <= 0.1",
        )


class TestDeterminism:
    def test_byte_identical_traces(self, tmp_path):
        from tlf.cli import main

        gt, kernel, blurry = deblur_fixture(seed=42)
        write_tlft(tmp_path / "blurry.tlft", blurry)
        write_kernel(tmp_path / "kernel.txt", kernel)
        args = [
            "deblur",
            "--input", str(tmp_path / "blurry.tlft"),
            "--kernel", str(tmp_path / "kernel.txt"),
            "--solver", "dtlf",
            "--max-iters", "15", "--rel-tol", "0", "--seed", "42",
        ]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        a = (tmp_path / "r1" / "trace.csv").read_bytes()
        b = (tmp_path / "r2" / "trace.csv").read_bytes()
        assert a == b
        report("determinism", f"repeated runs produced byte-identical {len(a)}-byte traces")


class TestExternalDenoiser:
    def test_echo_and_malformed(self, deblur_setup, echo_denoiser, bad_shape_denoiser, rng):
        x = ImageTensor(
            rng.uniform(0, 1, size=(1, 16, 16)).astype(np.float32).astype(np.float64)
        )
        out = external_roundtrip(echo_denoiser, x, hint=1.0)
        assert np.array_equal(out.data, x.data)

        with pytest.raises(DenoiserError):
            external_roundtrip(bad_shape_denoiser, x)

        _, _, _, prob, feas = deblur_setup
        spec = DenoiserSpec(kind="external", command=bad_shape_denoiser, strength=1.0)
        _, trace = dtlf_solve(prob, feas, spec, deblur_params(max_iters=4, rel_tol=0.0))
        assert all(rec.bus_branch == "fell-back-xG" for rec in trace)
        report(
            "external-denoiser",
            "echo round-trip bit-exact; malformed reply raised and fell back to x_G",
        )
