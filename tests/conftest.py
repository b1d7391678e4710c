import sys

import numpy as np
import pytest

from tlf.feasibility import CG_MAX_ITERS, _cg_solve, _jacobi_diagonal, solve_G, solve_G_mu
from tlf.metrics import psnr
from tlf.problem import Point, relative_change
from tlf.prox import ProxSpec, lp_penalty, prox_lp_array
from tlf.tensor import ImageTensor, LinearOperator, diff_stencil


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_image(rng, h=16, w=16, c=1, lo=0.0, hi=1.0):
    return ImageTensor(rng.uniform(lo, hi, size=(c, h, w)))


def roll_diff(a, axis, forward):
    """Wrap-around difference along ``axis`` (-1: width, -2: height); the
    forward difference's adjoint is the backward one."""
    return np.roll(a, -1 if forward else 1, axis) - a


def stencil_diff(a, out, axis, forward):
    """Write the wrap-around difference of ``a`` into ``out`` through
    ``diff_stencil``'s views, as the HQS solve does."""
    for minuend, subtrahend, dst in diff_stencil(a, out, axis, forward):
        np.subtract(minuend, subtrahend, out=dst)
    return out


class Adjoint(LinearOperator):
    """The adjoint of ``op`` as an operator, e.g. the Haar synthesis W^T."""

    def __init__(self, op):
        self.op = op

    def _check(self, a):
        return self.op._check(a)

    def _apply(self, a):
        return self.op._adjoint(a)

    def _adjoint(self, a):
        return self.op._apply(a)


class StencilDiff(LinearOperator):
    """The forward difference along ``axis`` as the HQS solve writes it; its
    adjoint is the backward one."""

    def __init__(self, axis):
        self.axis = axis

    def _apply(self, a):
        return stencil_diff(a, np.empty_like(a), self.axis, True)

    def _adjoint(self, a):
        return stencil_diff(a, np.empty_like(a), self.axis, False)


def estimate_lipschitz(*ops, shape, iters=50):
    """Power-iteration estimate of ||A^T A||_2 on images of the given shape,
    for A the operators ``ops`` applied left to right.

    Deterministic start vector so the step sizes derived from it are
    reproducible.  Nondecreasing in ``iters`` (Rayleigh quotients of a PSD
    map under power iteration).
    """
    if len(shape) == 2:
        shape = (1,) + tuple(shape)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(shape)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = v
        for op in ops:
            w = op._apply(w)
        for op in reversed(ops):
            w = op._adjoint(w)
        n = float(np.linalg.norm(w))
        if n == 0.0:
            return 0.0
        est = n
        v = w / n
    return est


def normal_apply(model, x, mu=0.0):
    """Oracle application of the HQS x-subproblem normal operator
    K^T K + 2 rho G_h^T G_h + 2 rho G_v^T G_v + mu I."""
    k = model.data_op
    rho = model.hqs_rho
    out = k._adjoint(k._apply(x))
    out = out + 2.0 * rho * roll_diff(roll_diff(x, -1, True), -1, False)
    out = out + 2.0 * rho * roll_diff(roll_diff(x, -2, True), -2, False)
    return out + mu * x


def hqs_energy(model, x, zh, zv, anchor=None, mu=0.0):
    """The splitting objective an HQS alternation does not increase.

    ``anchor`` is the x_tilde array of an anchored solve; mu = 0 drops it.
    """
    rho = model.hqs_rho
    res = model.data_op._apply(x) - model.observation.data
    e = 0.5 * float(np.vdot(res, res).real)
    dh = zh - roll_diff(x, -1, True)
    dv = zv - roll_diff(x, -2, True)
    e += rho * float(np.vdot(dh, dh).real) + rho * float(np.vdot(dv, dv).real)
    e += model.tv_weight * (lp_penalty(zh, model.tv_q) + lp_penalty(zv, model.tv_q))
    if mu > 0.0:
        d = x - anchor
        e += 0.5 * mu * float(np.vdot(d, d).real)
    return e


def reference_hqs(model, x_init, anchor, mu):
    """The allocating HQS alternation: fresh arrays for every term, every pass,
    and CG on the oracle ``normal_apply``.

    ``anchor`` (an ImageTensor) enters only when mu > 0. Returns the final x,
    the splitting energy at the start and after each alternation, and the
    last alternation's right-hand side.
    """
    rho = model.hqs_rho
    anchor_arr = anchor.data if mu > 0.0 else None
    spec = ProxSpec(model.tv_q, model.tv_weight / (2.0 * rho))
    x = x_init.data.copy()
    energies = [hqs_energy(model, x, roll_diff(x, -1, True), roll_diff(x, -2, True), anchor_arr, mu)]
    for _ in range(model.hqs_iters):
        zh = prox_lp_array(roll_diff(x, -1, True), spec)
        zv = prox_lp_array(roll_diff(x, -2, True), spec)
        rhs = model.ktb + 2.0 * rho * roll_diff(zh, -1, False) + 2.0 * rho * roll_diff(zv, -2, False)
        if anchor_arr is not None:
            rhs = rhs + mu * anchor_arr
        if model.fft_base is not None:
            x = np.fft.irfft2(np.fft.rfft2(rhs) / (model.fft_base + mu), s=rhs.shape[1:])
        else:
            diag = _jacobi_diagonal(model, mu)
            x = _cg_solve(lambda v: normal_apply(model, v, mu), rhs, x, model.cg_tol, CG_MAX_ITERS, diag)
        energies.append(hqs_energy(model, x, zh, zv, anchor_arr, mu))
    return x, energies, rhs


def checked_hqs(model, x_init, anchor=None, mu=0.0):
    """``reference_hqs`` after asserting that its x equals the production
    solve's (solve_G without an anchor, else solve_G_mu) byte for byte."""
    x, energies, rhs = reference_hqs(model, x_init, anchor, mu)
    got = solve_G(model, x_init) if anchor is None else solve_G_mu(model, x_init, anchor, mu)
    assert got.data.tobytes() == x.tobytes()
    return x, energies, rhs


def naive_circ_conv(x, taps):
    """Brute-force circular convolution oracle, plain Python loops."""
    h, w = x.shape
    kh, kw = taps.shape
    ch, cw = kh // 2, kw // 2
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    acc += taps[a, b] * x[(i - a + ch) % h, (j - b + cw) % w]
            out[i, j] = acc
    return out


def reference_apg(prob, monotone, params, ground_truth):
    """APG, or with ``monotone`` mAPG, computing every F, residual and
    synthesis afresh: the solvers' arithmetic without their reuse.

    Runs params.max_iters steps from the default start. Returns the last
    iterate, the initial F, per step (F, ||x_{k+1} - x_k||, rel_err, psnr),
    and how many steps kept the plain PG point over the momentum point.
    """
    t = params.resolve_step(prob.lipschitz)

    def residual(x):
        return prob.image_op.apply(prob.to_image(x)).data - prob.observation.data

    def F(x):
        res = residual(x)
        value = 0.5 * float(np.vdot(res, res).real)
        if prob.reg_spec.tau > 0:
            value += prob.reg_spec.tau * lp_penalty(x.data, prob.reg_spec.p)
        return value

    def pg(x):
        g = prob.from_image(prob.image_op.adjoint(ImageTensor(residual(x))))
        return ImageTensor(prox_lp_array(x.data - t * g.data, prob.reg_spec.scaled(t)))

    x = x_prev = prob.default_init()
    rows, kept_pg = [], 0
    for k in range(params.max_iters):
        w = (k - 1) / (k + 2) if k >= 1 else 0.0
        x_next = pg(ImageTensor(x.data + w * (x.data - x_prev.data)))
        if monotone:
            u = pg(x)
            if not F(x_next) <= F(u):
                x_next, kept_pg = u, kept_pg + 1
        rows.append((
            F(x_next),
            float(np.linalg.norm(x_next.data - x.data)),
            relative_change(Point(prob, x_next), Point(prob, x)),
            psnr(prob.to_image(x_next), ground_truth),
        ))
        x_prev, x = x, x_next
    return x, F(prob.default_init()), rows, kept_pg


# request layout: magic(4) h(4) w(4) c(4) hint(4) payload; reply omits hint
_DOUBLE_TEMPLATE = r"""
import struct, sys
import numpy as np

raw = sys.stdin.buffer.read()
magic = raw[:4]
h, w, c = struct.unpack("<III", raw[4:16])
payload = np.frombuffer(raw[20:], dtype="<f4")
{body}
"""


def write_double(tmp_path, name, body):
    path = tmp_path / f"{name}.py"
    path.write_text(_DOUBLE_TEMPLATE.format(body=body))
    return f"{sys.executable} {path}"


@pytest.fixture
def echo_denoiser(tmp_path):
    return write_double(
        tmp_path,
        "echo",
        "sys.stdout.buffer.write(magic + struct.pack('<III', h, w, c) + payload.tobytes())",
    )


@pytest.fixture
def add_denoiser(tmp_path):
    return write_double(
        tmp_path,
        "add",
        "sys.stdout.buffer.write(magic + struct.pack('<III', h, w, c)"
        " + (payload + np.float32(0.01)).astype('<f4').tobytes())",
    )


@pytest.fixture
def bad_shape_denoiser(tmp_path):
    return write_double(
        tmp_path,
        "badshape",
        "sys.stdout.buffer.write(magic + struct.pack('<III', h + 1, w, c) + payload.tobytes())",
    )


@pytest.fixture
def bad_magic_denoiser(tmp_path):
    return write_double(
        tmp_path,
        "badmagic",
        "sys.stdout.buffer.write(b'NOPE' + struct.pack('<III', h, w, c) + payload.tobytes())",
    )


@pytest.fixture
def nan_denoiser(tmp_path):
    return write_double(
        tmp_path,
        "nan",
        "sys.stdout.buffer.write(magic + struct.pack('<III', h, w, c)"
        " + np.full_like(payload, np.nan).tobytes())",
    )


@pytest.fixture
def not_executable(tmp_path):
    """A command that exists but cannot be started: a file without execute
    permission."""
    path = tmp_path / "denoiser.txt"
    path.write_text("not a program\n")
    path.chmod(0o644)
    return str(path)


@pytest.fixture
def failing_denoiser(tmp_path):
    return write_double(tmp_path, "failing", "sys.exit(3)")
