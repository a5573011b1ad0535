"""Binary PGM (P5, 8-bit) image I/O on the [0, 1] working scale."""

from __future__ import annotations

import numpy as np

from .grid import image


class PgmFormatError(ValueError):
    """Malformed or unsupported PGM content; the message names the field."""


def _read_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    # Header tokens are whitespace separated; '#' starts a comment to EOL.
    tokens: list[bytes] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i:i + 1].isspace():
            i += 1
        if i < n and data[i:i + 1] == b"#":
            while i < n and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        start = i
        while i < n and not data[i:i + 1].isspace() and data[i:i + 1] != b"#":
            i += 1
        if start == i:
            raise PgmFormatError("header: truncated before all fields were read")
        tokens.append(data[start:i])
    if i >= n or not data[i:i + 1].isspace():
        raise PgmFormatError("header: missing whitespace before pixel data")
    return tokens, i + 1


def load_image(path) -> np.ndarray:
    """Read a binary 8-bit PGM into a float image scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise PgmFormatError(f"magic: expected 'P5', got {data[:2]!r}")
    tokens, offset = _read_tokens(data[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise PgmFormatError(f"header: non-numeric field in {tokens!r}") from exc
    if width < 1 or height < 1:
        raise PgmFormatError(f"dimensions: must be positive, got {width}x{height}")
    if not (1 <= maxval <= 255):
        raise PgmFormatError(f"maxval: only 8-bit PGM supported, got {maxval}")
    pixels = data[2 + offset:]
    if len(pixels) < width * height:
        raise PgmFormatError(
            f"data: expected {width * height} bytes, found {len(pixels)}")
    raw = np.frombuffer(pixels[: width * height], dtype=np.uint8)
    if raw.max() > maxval:
        raise PgmFormatError(f"data: sample {raw.max()} exceeds maxval {maxval}")
    return image(raw.reshape(height, width).astype(np.float64) / maxval)


def save_image(path, u: np.ndarray) -> None:
    """Write an image as binary 8-bit PGM, clamping to [0, 1] first."""
    if u.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {u.shape}")
    quantized = np.rint(np.clip(u, 0.0, 1.0) * 255.0).astype(np.uint8)
    rows, cols = u.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())
