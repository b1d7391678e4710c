"""Bit-exact file formats: PGM/PPM interchange images, the TLFT raw float
container for lossless fixtures, plain-text kernel files, and PGM masks
(0 = missing, 255 = observed).
"""

import struct

import numpy as np

from .errors import FormatError, ValidationError
from .tensor import BlurKernel, ImageTensor

TLFT_MAGIC = b"TLFT"


def _read_pnm_tokens(raw, count):
    """Header tokens of a PNM file, skipping whitespace and # comments."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(raw):
            raise FormatError("truncated PNM header")
        ch = raw[i : i + 1]
        if ch == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j : j + 1].isspace():
                j += 1
            tokens.append(raw[i:j])
            i = j
    return tokens, i + 1  # payload starts after single whitespace byte


def _positive_ints(tokens, what):
    """Integer header fields that must each be > 0 (sizes, maxval)."""
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"bad {what}: {exc}") from exc
    if min(values) <= 0:
        raise FormatError(f"bad {what}: {values} must all be positive")
    return values


def read_image(path) -> ImageTensor:
    """Load PGM (P5), PPM (P6) or TLFT by magic; 8-bit values map to [0,1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] == TLFT_MAGIC:
        return _decode_tlft(raw)
    if raw[:2] in (b"P5", b"P6"):
        channels = 1 if raw[:2] == b"P5" else 3
        tokens, offset = _read_pnm_tokens(raw, 4)
        width, height, maxval = _positive_ints(tokens[1:], "PNM header")
        if maxval != 255:
            raise FormatError(f"only 8-bit PNM supported, maxval={maxval}")
        n = width * height * channels
        body = raw[offset : offset + n]
        if len(body) != n:
            raise FormatError(f"PNM payload {len(body)} bytes, expected {n}")
        flat = np.frombuffer(body, dtype=np.uint8).astype(np.float64) / 255.0
        if channels == 1:
            data = flat.reshape(1, height, width)
        else:
            data = flat.reshape(height, width, 3).transpose(2, 0, 1)
        return ImageTensor(data)
    raise FormatError(f"unrecognized image magic {raw[:4]!r} in {path}")


def write_image(path, img: ImageTensor):
    """Write PGM for 1 channel / PPM for 3, clipping to [0,1] at 8 bits."""
    q = np.clip(np.rint(np.clip(img.data, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)
    if img.channels == 1:
        header = f"P5\n{img.width} {img.height}\n255\n".encode()
        payload = q[0].tobytes()
    elif img.channels == 3:
        header = f"P6\n{img.width} {img.height}\n255\n".encode()
        payload = q.transpose(1, 2, 0).tobytes()
    else:
        raise ValidationError(f"cannot write {img.channels}-channel PNM")
    with open(path, "wb") as fh:
        fh.write(header + payload)


def _decode_tlft(raw) -> ImageTensor:
    if len(raw) < 16:
        raise FormatError("truncated TLFT header")
    h, w, c = struct.unpack("<III", raw[4:16])
    n = h * w * c
    body = raw[16 : 16 + 8 * n]
    if len(body) != 8 * n:
        raise FormatError(f"TLFT payload {len(body)} bytes, expected {8 * n}")
    return ImageTensor(np.frombuffer(body, dtype="<f8").reshape(c, h, w))


def read_tlft(path) -> ImageTensor:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != TLFT_MAGIC:
        raise FormatError(f"bad TLFT magic {raw[:4]!r}")
    return _decode_tlft(raw)


def write_tlft(path, img: ImageTensor):
    header = TLFT_MAGIC + struct.pack("<III", img.height, img.width, img.channels)
    with open(path, "wb") as fh:
        fh.write(header + img.data.astype("<f8").tobytes())


def read_kernel(path, normalize=True) -> BlurKernel:
    """Plain-text kernel: first line 'kh kw', then row-major taps."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise FormatError("kernel file missing size line")
    kh, kw = _positive_ints(tokens[:2], "kernel size line")
    try:
        taps = np.array([float(t) for t in tokens[2:]], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"bad kernel file: {exc}") from exc
    if taps.size != kh * kw:
        raise FormatError(f"kernel file has {taps.size} taps, expected {kh * kw}")
    return BlurKernel(taps.reshape(kh, kw), normalize=normalize)


def write_kernel(path, kernel: BlurKernel):
    kh, kw = kernel.size
    lines = [f"{kh} {kw}"]
    for row in kernel.taps:
        lines.append(" ".join(format(v, ".17g") for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mask(path) -> np.ndarray:
    """PGM mask: 0 = missing, 255 = observed; returns a binary (H, W) array."""
    img = read_image(path)
    if img.channels != 1:
        raise ValidationError("mask must be single channel")
    vals = np.unique(img.data)
    if not np.all(np.isin(vals, (0.0, 1.0))):
        raise ValidationError("mask pixels must be 0 or 255")
    return img.data[0].copy()


def write_mask(path, mask: np.ndarray):
    m = np.asarray(mask, dtype=np.float64)
    write_image(path, ImageTensor(m))
