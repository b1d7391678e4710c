"""Designed denoising modules plus the external-process denoiser protocol.

The designed kinds stand in for trained networks: tv-rof (the package's
own HQS), median and wavelet-shrink, one function each in ``_DESIGNED``.
``external`` shells out to any executable speaking the TLF1 wire protocol:

    request:  b"TLF1" | u32-LE height | u32-LE width | u32-LE channels
              | f32-LE hint | h*w*c float32-LE values (row-major, planar)
    reply:    b"TLF1" | same dims | payload (no hint)

One request per invocation; streams close after the reply.
"""

import math
import numbers
import shlex
import struct
import subprocess
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DenoiserError
from .feasibility import FeasibilityModel, solve_G
from .prox import ProxSpec, prox_lp
from .tensor import DEFAULT_LEVELS, Identity, ImageTensor, WaveletForward

PROTOCOL_MAGIC = b"TLF1"
DEFAULT_TIMEOUT = 30.0

_TV_ROF_ITERS = 10


@dataclass(frozen=True)
class DenoiserSpec:
    kind: str
    strength: float | tuple = 0.0  # or per-outer-iteration strengths; the last one holds after
    command: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown denoiser kind {self.kind!r}")
        strengths = self.strength if isinstance(self.strength, tuple) else (self.strength,)
        if not strengths:
            raise ConfigError("strength tuple must be non-empty")
        if not all(isinstance(s, numbers.Real) for s in strengths):
            raise ConfigError(f"strength must be a number or a tuple of numbers, got {self.strength!r}")
        if not all(0 <= s < math.inf for s in strengths):
            raise ConfigError("strength must be finite and >= 0")
        if self.kind == "external":
            try:
                argv = shlex.split(self.command)
            except ValueError as exc:
                raise ConfigError(f"bad external denoiser command {self.command!r}: {exc}") from exc
            if not argv:
                raise ConfigError("external denoiser needs a command")

    def strength_at(self, iter_index: int) -> float:
        if not isinstance(self.strength, tuple):
            return self.strength
        return float(self.strength[min(iter_index, len(self.strength) - 1)])

    @classmethod
    def parse(cls, text: str) -> "DenoiserSpec":
        """Parse 'kind', 'kind:strength' or 'kind:s0,s1,...' for a designed
        kind; after a colon every comma-separated token must be a number."""
        kind, colon, rest = text.partition(":")
        kind = kind.strip()
        if kind == "external":  # its command cannot be written in this form
            raise ConfigError("the external denoiser is set with --external-denoiser, not as a denoiser kind")
        if not colon:
            return cls(kind=kind)
        try:
            values = tuple(float(tok) for tok in rest.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad denoiser strength in {text!r}") from exc
        return cls(kind=kind, strength=values[0] if len(values) == 1 else values)


def _tv_rof(x: ImageTensor, weight: float) -> ImageTensor:
    # quadratic coupling scales with the weight so strength controls the
    # amount of smoothing, not just the gradient threshold
    rho = max(2.5 * weight, 1e-3)
    model = FeasibilityModel(
        data_op=Identity(),
        observation=x,
        tv_weight=weight,
        tv_q=1.0,
        hqs_rho=rho,
        hqs_iters=_TV_ROF_ITERS,
    )
    return solve_G(model, x)


def _median(x: ImageTensor, strength: float) -> ImageTensor:
    half = max(1, int(round(strength)))
    shifts = [
        np.roll(x.data, (di, dj), axis=(1, 2))
        for di in range(-half, half + 1)
        for dj in range(-half, half + 1)
    ]
    return ImageTensor(np.median(np.stack(shifts), axis=0))


def _wavelet_shrink(x: ImageTensor, threshold: float) -> ImageTensor:
    # up to DEFAULT_LEVELS levels, as many as both sides halve evenly; a side
    # that is odd keeps 1 level and fails the transform's size check
    sides = x.height | x.width
    levels = min(DEFAULT_LEVELS, max(1, (sides & -sides).bit_length() - 1))
    wavelet = WaveletForward(levels)
    return wavelet.adjoint(prox_lp(wavelet.apply(x), ProxSpec(1.0, threshold)))


_DESIGNED = {"tv-rof": _tv_rof, "median": _median, "wavelet-shrink": _wavelet_shrink}
DESIGNED_KINDS = tuple(_DESIGNED)
KINDS = (*DESIGNED_KINDS, "external")


def denoise(spec: DenoiserSpec, x: ImageTensor, iter_index: int = 0) -> ImageTensor:
    """Apply the configured denoiser; strength 0 is the identity for all kinds."""
    if iter_index < 0:
        raise ConfigError("iter_index must be >= 0")
    strength = spec.strength_at(iter_index)
    if strength == 0.0:
        return x
    if spec.kind == "external":
        return external_roundtrip(spec.command, x, hint=strength)
    return _DESIGNED[spec.kind](x, strength)


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


def external_roundtrip(command: str, x: ImageTensor, hint: float = 0.0, timeout: float = DEFAULT_TIMEOUT) -> ImageTensor:
    """Send one TLF1 request to a child process and decode its reply.

    ``command`` is one shell-quoted string, split with ``shlex``.
    """
    argv = shlex.split(command)
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
    except OSError as exc:  # missing, not executable, a directory, ...
        raise DenoiserError(f"cannot launch denoiser: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise DenoiserError(f"denoiser timed out after {timeout}s") from exc
    if proc.returncode != 0:
        raise DenoiserError(
            f"denoiser exited {proc.returncode}: {proc.stderr[:200]!r}"
        )
    return _decode_reply(proc.stdout, x.shape)
