import sys

import numpy as np
import pytest

from tlf.tensor import ImageTensor


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_image(rng, h=16, w=16, c=1, lo=0.0, hi=1.0):
    return ImageTensor(rng.uniform(lo, hi, size=(c, h, w)))


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
def failing_denoiser(tmp_path):
    return write_double(tmp_path, "failing", "sys.exit(3)")
