"""Artifact persistence: LSLF/LSLT binary formats and PGM images.

LSLF (single field), little endian:
    magic "LSLF" | u32 version=1 | u64 samples_x | u64 samples_y |
    f64 origin_x, origin_y, spacing_x, spacing_y |
    f64 values, row major, rows of constant y from the origin upward
    (56 header bytes + 8 * samples_x * samples_y)

LSLT (transfer record), little endian:
    magic "LSLT" | u32 version=1 | u64 K | u64 T | f64 tau |
    K*K mask bytes (0 absent, 1 measured, 2 lifted), row major |
    T f64 values for every non-absent (i, j) pair in row-major order

Both formats round-trip bit exactly. Loading checks the size a header
implies against the file before allocating it and rejects non-finite
values, so a malformed artifact ends in FormatError. PGM output is
16-bit binary (P5, big-endian samples per the format), mapping values
linearly between two clip percentiles; image rows run from the top of
the domain downward.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .core import Grid2D, MaskState, TransferData
from .errors import DomainError, FormatError

_FIELD_MAGIC = b"LSLF"
_TRANSFER_MAGIC = b"LSLT"
_VERSION = 1


def save_field(path: str | Path, grid: Grid2D, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise FormatError(f"field shape {values.shape} does not match grid {grid.shape}")
    header = struct.pack(
        "<4sIQQ4d",
        _FIELD_MAGIC,
        _VERSION,
        grid.nx + 1,
        grid.ny + 1,
        grid.origin[0],
        grid.origin[1],
        grid.hx,
        grid.hy,
    )
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def _read_exactly(handle, count: int, what: str) -> bytes:
    """Read count bytes; a header asking for more than the file holds is
    refused before anything is allocated."""
    if count > os.fstat(handle.fileno()).st_size - handle.tell():
        raise FormatError(f"truncated file: expected {count} bytes of {what}")
    data = handle.read(count)
    if len(data) != count:
        raise FormatError(f"truncated file: expected {count} bytes of {what}")
    return data


def _finite_values(raw: bytes, what: str) -> np.ndarray:
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise FormatError(f"non-finite {what}")
    return values


def load_field(path: str | Path) -> tuple[Grid2D, np.ndarray]:
    with open(path, "rb") as handle:
        header = _read_exactly(handle, 56, "field header")
        magic, version, sx, sy, ox, oy, hx, hy = struct.unpack("<4sIQQ4d", header)
        if magic != _FIELD_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_FIELD_MAGIC!r}")
        if version != _VERSION:
            raise FormatError(f"unsupported field format version {version}")
        if sx < 3 or sy < 3:
            raise FormatError(f"field of {sx}x{sy} samples is too small")
        raw = _read_exactly(handle, 8 * sx * sy, "field values")
        if handle.read(1):
            raise FormatError("trailing bytes after field values")
    grid = Grid2D(int(sx) - 1, int(sy) - 1, hx, hy, (ox, oy))
    return grid, _finite_values(raw, "field values").reshape(sy, sx)


def save_transfer(path: str | Path, data: TransferData) -> None:
    K, T = data.num_sources, data.num_samples
    mask = np.asarray(data.mask, dtype=np.uint8)
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4sIQQd", _TRANSFER_MAGIC, _VERSION, K, T, data.tau))
        handle.write(mask.tobytes())
        for i in range(K):
            for j in range(K):
                if mask[i, j] != MaskState.ABSENT:
                    handle.write(np.ascontiguousarray(data.values[i, j], dtype="<f8").tobytes())


def load_transfer(path: str | Path) -> TransferData:
    with open(path, "rb") as handle:
        header = _read_exactly(handle, 32, "transfer header")
        magic, version, K, T, tau = struct.unpack("<4sIQQd", header)
        if magic != _TRANSFER_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_TRANSFER_MAGIC!r}")
        if version != _VERSION:
            raise FormatError(f"unsupported transfer format version {version}")
        if K < 1 or T < 1:
            raise FormatError(f"degenerate transfer record {K}x{T}")
        mask = np.frombuffer(_read_exactly(handle, K * K, "mask"), dtype=np.uint8)
        mask = mask.reshape(K, K)
        if not np.isin(mask, (0, 1, 2)).all():
            raise FormatError("mask bytes must be 0, 1 or 2")
        present = mask != MaskState.ABSENT
        count = int(present.sum())
        raw = _read_exactly(handle, 8 * T * count, f"{count} series of {T} samples")
        if handle.read(1):
            raise FormatError("trailing bytes after transfer values")
    values = np.zeros((K, K, T))
    values[present] = _finite_values(raw, "transfer values").reshape(count, T)
    return TransferData(values, mask.astype(np.int8), tau)


def render_pgm(
    values: np.ndarray,
    path: str | Path,
    clip_percentiles: tuple[float, float] = (1.0, 99.0),
) -> None:
    """16-bit grayscale PGM with a linear map between two percentiles."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise DomainError("cannot render a field with non-finite values")
    lo, hi = np.percentile(values, clip_percentiles)
    if hi > lo:
        scaled = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
    else:
        scaled = np.full(values.shape, 0.5)
    pixels = np.round(scaled * 65535.0).astype(">u2")
    pixels = pixels[::-1]  # row 0 of the image is the top of the domain
    height, width = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        handle.write(pixels.tobytes())


def load_pgm(path: str | Path) -> np.ndarray:
    """Read back a 16-bit binary PGM written by render_pgm."""
    with open(path, "rb") as handle:
        magic = handle.readline().strip()
        if magic != b"P5":
            raise FormatError(f"not a binary PGM file: {magic!r}")
        dims = handle.readline().split()
        maxval = int(handle.readline())
        if maxval != 65535:
            raise FormatError(f"expected 16-bit PGM, got maxval {maxval}")
        width, height = int(dims[0]), int(dims[1])
        raw = _read_exactly(handle, 2 * width * height, "pixels")
    return np.frombuffer(raw, dtype=">u2").reshape(height, width).astype(np.uint16)
