"""Designed denoising modules plus the external-process denoiser protocol.

The in-process kinds stand in for trained networks: tv-rof (the package's
own HQS), recursive-filter, gaussian, median, wavelet-shrink.  ``external``
shells out to any executable speaking the TLF1 wire protocol:

    request:  b"TLF1" | u32-LE height | u32-LE width | u32-LE channels
              | f32-LE hint | h*w*c float32-LE values (row-major, planar)
    reply:    b"TLF1" | same dims | payload (no hint)

One request per invocation; streams close after the reply.
"""

import shlex
import struct
import subprocess
from dataclasses import dataclass

import numpy as np

from ._kernels import smooth_recursive
from .errors import ConfigError, DenoiserError
from .feasibility import FeasibilityModel, solve_G
from .prox import ProxSpec, prox_lp
from .tensor import BlurKernel, CircularConvolution, Identity, ImageTensor, WaveletForward, WaveletInverse

PROTOCOL_MAGIC = b"TLF1"
DEFAULT_TIMEOUT = 30.0

KINDS = ("tv-rof", "recursive-filter", "gaussian", "median", "wavelet-shrink", "external")

_TV_ROF_ITERS = 10


@dataclass(frozen=True)
class DenoiserSpec:
    kind: str
    strength: float = 0.0
    schedule: tuple | None = None  # per-outer-iteration strengths
    command: str = ""
    args: tuple = ()
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown denoiser kind {self.kind!r}")
        if self.strength < 0:
            raise ConfigError("strength must be >= 0")
        if self.schedule is not None:
            if len(self.schedule) == 0:
                raise ConfigError("schedule must be non-empty when given")
            if any(s < 0 for s in self.schedule):
                raise ConfigError("schedule strengths must be >= 0")
        if self.kind == "external" and not self.command:
            raise ConfigError("external denoiser needs a command")

    def strength_at(self, iter_index: int) -> float:
        if self.schedule is None:
            return self.strength
        return float(self.schedule[min(iter_index, len(self.schedule) - 1)])

    @classmethod
    def parse(cls, text: str) -> "DenoiserSpec":
        """Parse 'kind' or 'kind:strength' or 'kind:s0,s1,...' strings."""
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if not rest:
            return cls(kind=kind)
        values = [float(tok) for tok in rest.split(",") if tok.strip()]
        if len(values) == 1:
            return cls(kind=kind, strength=values[0])
        return cls(kind=kind, strength=values[0], schedule=tuple(values))


def _tv_rof(x: ImageTensor, weight: float) -> ImageTensor:
    # quadratic coupling scales with the weight so strength controls the
    # amount of smoothing, not just the gradient threshold
    rho = max(2.5 * weight, 1e-3)
    model = FeasibilityModel(
        data_op=Identity(),
        observation=x,
        tv_weight=weight,
        tv_q=1.0,
        hqs_rho=(rho, rho),
        hqs_iters=_TV_ROF_ITERS,
        x_solver="fft",
    )
    return solve_G(model, x)


def _gaussian_blur(x: ImageTensor, sigma: float) -> ImageTensor:
    radius = max(1, int(np.ceil(3.0 * sigma)))
    size = min(2 * radius + 1, 2 * (min(x.height, x.width) // 2) - 1)
    op = CircularConvolution(BlurKernel.gaussian(size, sigma))
    return op.apply(x)


def _median(x: ImageTensor, strength: float) -> ImageTensor:
    half = max(1, int(round(strength)))
    shifts = [
        np.roll(x.data, (di, dj), axis=(1, 2))
        for di in range(-half, half + 1)
        for dj in range(-half, half + 1)
    ]
    return ImageTensor(np.median(np.stack(shifts), axis=0))


def _wavelet_shrink(x: ImageTensor, threshold: float, levels=3) -> ImageTensor:
    coeffs = WaveletForward(levels).apply(x)
    shrunk = prox_lp(coeffs, ProxSpec(1.0, threshold))
    return WaveletInverse(levels).apply(shrunk)


def denoise(spec: DenoiserSpec, x: ImageTensor, iter_index: int = 0) -> ImageTensor:
    """Apply the configured denoiser; strength 0 is the identity for all kinds."""
    if iter_index < 0:
        raise ConfigError("iter_index must be >= 0")
    strength = spec.strength_at(iter_index)
    if strength == 0.0:
        return x
    if spec.kind == "external":
        argv = (*shlex.split(spec.command), *spec.args)
        return external_roundtrip(argv, x, hint=strength, timeout=spec.timeout)
    if spec.kind == "tv-rof":
        return _tv_rof(x, strength)
    if spec.kind == "recursive-filter":
        a = float(np.exp(-1.0 / strength))
        return ImageTensor(smooth_recursive(x.data, a))
    if spec.kind == "gaussian":
        return _gaussian_blur(x, strength)
    if spec.kind == "median":
        return _median(x, strength)
    return _wavelet_shrink(x, strength)


def try_denoised(propose):
    """Return ``propose()``, or None when a denoiser called in it fails.

    The solvers turn None into a NaN displacement norm, which BUS rejects:
    a failed denoiser costs the anchored point, never the solve.
    """
    try:
        return propose()
    except DenoiserError:
        return None


def _encode_request(x: ImageTensor, hint: float) -> bytes:
    header = PROTOCOL_MAGIC + struct.pack(
        "<IIIf", x.height, x.width, x.channels, float(hint)
    )
    payload = x.data.astype("<f4").tobytes()
    return header + payload


def _decode_reply(blob: bytes, expect_shape) -> ImageTensor:
    head = 4 + 12
    if len(blob) < head:
        raise DenoiserError(f"reply truncated at {len(blob)} bytes")
    if blob[:4] != PROTOCOL_MAGIC:
        raise DenoiserError(f"bad reply magic {blob[:4]!r}")
    h, w, c = struct.unpack("<III", blob[4:head])
    if (c, h, w) != tuple(expect_shape):
        raise DenoiserError(
            f"reply shape {(c, h, w)} does not match request {tuple(expect_shape)}"
        )
    n = h * w * c
    body = blob[head:]
    if len(body) != 4 * n:
        raise DenoiserError(f"reply payload {len(body)} bytes, expected {4 * n}")
    data = np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(c, h, w)
    if not np.isfinite(data).all():
        raise DenoiserError("reply contains NaN or Inf")
    return ImageTensor(data)


def external_roundtrip(command, x: ImageTensor, hint: float = 0.0, timeout: float = DEFAULT_TIMEOUT) -> ImageTensor:
    """Send one TLF1 request to a child process and decode its reply."""
    if isinstance(command, str):
        argv = shlex.split(command)
    else:
        argv = [str(c) for c in command if str(c)]
    if not argv:
        raise DenoiserError("empty external denoiser command")
    request = _encode_request(x, hint)
    try:
        proc = subprocess.run(
            argv,
            input=request,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except FileNotFoundError as exc:
        raise DenoiserError(f"cannot launch denoiser: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise DenoiserError(f"denoiser timed out after {timeout}s") from exc
    if proc.returncode != 0:
        raise DenoiserError(
            f"denoiser exited {proc.returncode}: {proc.stderr[:200]!r}"
        )
    return _decode_reply(proc.stdout, x.shape)
