"""Image ingestion and emission: IDX (MNIST container), binary PGM, built-in
test patterns, binarization and code-frame visualization."""

from __future__ import annotations

import os
import struct

import numpy as np

from .dog import IntensityImage
from .errors import FormatError, InvalidParameterError, check_range

IDX_IMAGE_MAGIC = 2051

PATTERN_SIZE = 28


def load_idx_image(path, index: int = 0) -> IntensityImage:
    """Read one image from an IDX images file (big-endian, magic 2051)."""
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise FormatError(f"{path}: truncated IDX header")
        magic, count, rows, cols = struct.unpack(">iiii", header)
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"{path}: bad IDX magic {magic}, expected {IDX_IMAGE_MAGIC}")
        if min(count, rows, cols) < 1:
            raise FormatError(f"{path}: bad IDX sizes {count} x {rows} x {cols}")
        if 16 + count * rows * cols > os.fstat(f.fileno()).st_size:
            raise FormatError(f"{path}: truncated IDX payload ({count} x {rows} x {cols} declared)")
        if not 0 <= index < count:
            raise IndexError(f"image index {index} out of range (file holds {count})")
        f.seek(16 + index * rows * cols)
        payload = f.read(rows * cols)
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols)
    return IntensityImage(pixels=pixels.astype(np.float64) / 255.0)


def _read_pgm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("truncated PGM header")
    return data[start:pos], pos


def read_pgm(path) -> IntensityImage:
    """Read a binary (P5) PGM with maxval <= 255 into [0, 1] intensities."""
    with open(path, "rb") as f:
        data = f.read()
    magic, pos = _read_pgm_token(data, 0)
    if magic != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {magic!r})")
    sizes = []
    for field in ("width", "height", "maxval"):
        token, pos = _read_pgm_token(data, pos)
        if not token.isdigit() or int(token) < 1:  # a positive decimal integer
            raise FormatError(f"{path}: bad PGM {field} {token!r}")
        sizes.append(int(token))
    width, height, maxval = sizes
    if maxval > 255:
        raise FormatError(f"{path}: unsupported PGM maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos : pos + width * height]
    if len(raster) < width * height:
        raise FormatError(f"{path}: truncated PGM raster")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if pixels.max() > maxval:
        raise FormatError(f"{path}: PGM sample {pixels.max()} exceeds maxval {maxval}")
    return IntensityImage(pixels=pixels.astype(np.float64) / maxval)


def write_pgm(path, gray: np.ndarray) -> None:
    """Write a uint8 grid as binary PGM (P5, maxval 255)."""
    gray = np.asarray(gray)
    if gray.dtype != np.uint8:
        raise InvalidParameterError("write_pgm expects uint8 data")
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def intensity_to_gray(image: IntensityImage) -> np.ndarray:
    return np.rint(image.pixels * 255.0).astype(np.uint8)


def codes_to_gray(codes: np.ndarray, bits: int = 8) -> np.ndarray:
    """Signed codes to grayscale: 0 -> 128, +-full range -> 255/~0, linear,
    clipped."""
    full = float(2**bits - 1)
    gray = np.rint(128.0 + np.asarray(codes, dtype=np.float64) / full * 127.0)
    return np.clip(gray, 0, 255).astype(np.uint8)


def binarize(image: IntensityImage, threshold: float = 0.5) -> IntensityImage:
    """Pixel >= threshold -> 1 else 0 (so threshold 0 turns everything on)."""
    check_range("threshold", threshold, at_least=0.0, at_most=1.0)
    return IntensityImage(pixels=(image.pixels >= threshold).astype(np.float64))


def make_pattern(name: str, size: int = PATTERN_SIZE) -> IntensityImage:
    """Built-in binary test patterns: constant, step, checkerboard, dot."""
    check_range("pattern size", size, at_least=3)
    if name == "constant":
        pixels = np.full((size, size), 0.5)
    elif name == "step":
        pixels = np.zeros((size, size))
        pixels[:, size // 2 :] = 1.0
    elif name == "checkerboard":
        block = max(1, size // 7)
        idx = np.arange(size) // block
        pixels = ((idx[:, None] + idx[None, :]) % 2).astype(np.float64)
    elif name == "dot":
        pixels = np.zeros((size, size))
        pixels[size // 2, size // 2] = 1.0
    else:
        raise InvalidParameterError(f"unknown pattern {name!r}")
    return IntensityImage(pixels=pixels)


PATTERN_NAMES = ("constant", "step", "checkerboard", "dot")
