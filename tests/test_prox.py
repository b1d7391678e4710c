import numpy as np
import pytest

from tlf.errors import ConfigError
from tlf.prox import SUPPORTED_P, ProxSpec, lp_penalty, project_box01, prox_lp, prox_lp_array
from tlf.tensor import ImageTensor


def grid_argmin(v, tau, p, lo=-2.0, hi=2.0, step=1e-5):
    """Scalar brute-force oracle for the thresholding objective."""
    u = np.append(np.arange(lo, hi + step / 2, step), 0.0)
    if p == 0.0:
        penalty = tau * (u != 0.0)  # |u|^0 with the 0^0 = 0 convention
    else:
        penalty = tau * np.abs(u) ** p
    obj = penalty + 0.5 * (u - v) ** 2
    return u[int(np.argmin(obj))]


def scalar(v, spec):
    return float(prox_lp_array(np.array([v]), spec)[0])


class TestSpec:
    def test_unsupported_p(self):
        with pytest.raises(ConfigError):
            ProxSpec(0.7, 1.0)

    def test_negative_tau(self):
        with pytest.raises(ConfigError):
            ProxSpec(1.0, -0.1)

    def test_fraction_snaps(self):
        assert ProxSpec(2.0 / 3.0, 0.0).p == 2.0 / 3.0


class TestClosedForms:
    def test_soft_threshold(self):
        assert scalar(2.0, ProxSpec(1.0, 0.5)) == pytest.approx(1.5, abs=1e-15)
        assert scalar(-2.0, ProxSpec(1.0, 0.5)) == pytest.approx(-1.5, abs=1e-15)
        assert scalar(0.3, ProxSpec(1.0, 0.5)) == 0.0

    def test_hard_threshold(self):
        spec = ProxSpec(0.0, 0.5)  # threshold sqrt(2*tau) = 1
        assert scalar(0.9, spec) == 0.0
        assert scalar(2.0, spec) == 2.0
        assert scalar(1.0, spec) == 0.0  # tie resolves to 0

    def test_half_example_vs_grid(self):
        got = scalar(1.0, ProxSpec(0.5, 0.1))
        want = grid_argmin(1.0, 0.1, 0.5)
        assert abs(got - want) <= 2e-5

    @pytest.mark.parametrize("p", [0.0, 0.5, 2.0 / 3.0, 1.0])
    def test_random_cases_vs_grid(self, rng, p):
        for _ in range(100):
            v = rng.uniform(-1.8, 1.8)
            tau = rng.uniform(1e-3, 1.0)
            got = scalar(v, ProxSpec(p, tau))
            want = grid_argmin(v, tau, p)
            assert abs(got - want) <= 2e-5
            # objective at our point can't be worse than at the grid argmin
            def obj(u):
                pen = tau * (u != 0.0) if p == 0.0 else tau * abs(u) ** p
                return pen + 0.5 * (u - v) ** 2
            assert obj(got) <= obj(want) + 1e-9


class TestProperties:
    @pytest.mark.parametrize("p", [0.0, 0.5, 2.0 / 3.0, 1.0])
    def test_tau_zero_is_identity(self, rng, p):
        v = ImageTensor(rng.uniform(-2, 2, size=(1, 8, 8)))
        out = prox_lp(v, ProxSpec(p, 0.0))
        assert np.array_equal(out.data, v.data)

    @pytest.mark.parametrize("p", [0.0, 0.5, 2.0 / 3.0, 1.0])
    def test_odd(self, rng, p):
        v = rng.uniform(-2, 2, size=64)
        spec = ProxSpec(p, 0.3)
        assert np.array_equal(prox_lp_array(-v, spec), -prox_lp_array(v, spec))

    def test_l1_nonexpansive(self, rng):
        spec = ProxSpec(1.0, 0.4)
        a = rng.uniform(-2, 2, size=256)
        b = rng.uniform(-2, 2, size=256)
        assert np.all(
            np.abs(prox_lp_array(a, spec) - prox_lp_array(b, spec)) <= np.abs(a - b) + 1e-15
        )

    def test_shrinks_toward_zero(self, rng):
        for p in (0.0, 0.5, 2.0 / 3.0, 1.0):
            v = rng.uniform(-2, 2, size=256)
            out = prox_lp_array(v, ProxSpec(p, 0.2))
            assert np.all(np.abs(out) <= np.abs(v) + 1e-15)


class TestOutArgument:
    """out= (and scratch=) give the allocating call's bytes, signed zeros included."""

    @pytest.mark.parametrize("tau", [0.0, 0.3])
    @pytest.mark.parametrize("p", SUPPORTED_P)
    def test_equal_to_allocating_call(self, rng, p, tau):
        edge = [-0.0, 0.0, tau, -tau, -0.0, 0.0, -tau, tau]
        v = np.concatenate([edge, rng.uniform(-2, 2, size=56)]).reshape(2, 1, 4, 8)
        spec = ProxSpec(p, tau)
        want = prox_lp_array(v, spec).tobytes()
        if p == 1.0 and tau > 0.0:
            # sign(-0.0) * 0 is +0.0, where copysign(0, -0.0) would give -0.0
            assert (np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)).tobytes() == want
        buf = np.full(v.shape, np.nan)
        assert prox_lp_array(v, spec, out=buf) is buf
        assert buf.tobytes() == want
        in_place = v.copy()  # out may be v itself, as in the HQS z-step
        assert prox_lp_array(in_place, spec, out=in_place) is in_place
        assert in_place.tobytes() == want
        in_place = v.copy()
        prox_lp_array(in_place, spec, out=in_place, scratch=np.full(v.shape, np.nan))
        assert in_place.tobytes() == want


class TestPenalty:
    def test_l0_counts_nonzeros(self):
        assert lp_penalty(np.array([0.0, 0.5, -2.0, 0.0]), 0.0) == 2.0

    def test_l1(self):
        assert lp_penalty(np.array([1.0, -2.0]), 1.0) == 3.0


class TestBoxProjection:
    def test_examples(self):
        img = ImageTensor(np.array([[[-0.2, 0.5, 1.7]]]))
        out = project_box01(img)
        assert np.array_equal(out.data, [[[0.0, 0.5, 1.0]]])

    def test_idempotent(self, rng):
        v = ImageTensor(rng.uniform(-3, 3, size=(1, 8, 8)))
        once = project_box01(v)
        twice = project_box01(once)
        assert np.array_equal(once.data, twice.data)
