"""Binary scalar-field dump format used for checkpoints and the besov CLI.

Layout (all multi-byte values little-endian):

    bytes 0..7    magic  b"TORUSFLD"
    bytes 8..15   format version, uint64 (currently 1)
    next 8        dim, int64
    next 8*dim    resolution per axis, int64
    next 8*dim    domain length per axis, float64
    rest          row-major float64 samples (dim-dependent count)

Vector fields are stored one component per file.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

from .errors import DumpFormatError
from .spectral import DIMENSIONS, ScalarField, SpectralGrid

MAGIC = b"TORUSFLD"
VERSION = 1


def write_field_dump(path, field: ScalarField) -> None:
    grid = field.grid
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<Q", VERSION))
    buf.write(struct.pack("<q", grid.dim))
    buf.write(struct.pack(f"<{grid.dim}q", *grid.resolution))
    buf.write(struct.pack(f"<{grid.dim}d", *grid.length))
    buf.write(np.ascontiguousarray(field.data, dtype="<f8").tobytes())
    Path(path).write_bytes(buf.getvalue())


def _take(raw: bytes, offset: int, count: int, what: str) -> tuple[bytes, int]:
    if offset + count > len(raw):
        raise DumpFormatError(
            f"dump truncated while reading {what} "
            f"(need {count} bytes at offset {offset}, have {len(raw) - offset})",
            offset=offset)
    return raw[offset:offset + count], offset + count


def read_field_dump(path) -> ScalarField:
    raw = Path(path).read_bytes()
    chunk, offset = _take(raw, 0, 8, "magic")
    if chunk != MAGIC:
        raise DumpFormatError(f"bad magic {chunk!r}", offset=0)
    chunk, offset = _take(raw, offset, 8, "version")
    (version,) = struct.unpack("<Q", chunk)
    if version != VERSION:
        raise DumpFormatError(f"unsupported dump version {version}", offset=8)
    chunk, offset = _take(raw, offset, 8, "dim")
    (dim,) = struct.unpack("<q", chunk)
    if dim not in DIMENSIONS:
        raise DumpFormatError(f"unsupported dimension {dim}", offset=offset - 8)
    chunk, offset = _take(raw, offset, 8 * dim, "resolution")
    resolution = struct.unpack(f"<{dim}q", chunk)
    chunk, offset = _take(raw, offset, 8 * dim, "length")
    length = struct.unpack(f"<{dim}d", chunk)
    try:
        grid = SpectralGrid(resolution, length)
    except ValueError as exc:
        raise DumpFormatError(f"invalid grid header: {exc}", offset=16) from exc
    count = int(np.prod(resolution))
    chunk, offset = _take(raw, offset, 8 * count, "samples")
    data = np.frombuffer(chunk, dtype="<f8").reshape(resolution)
    if offset != len(raw):
        raise DumpFormatError(
            f"{len(raw) - offset} trailing bytes after samples", offset=offset)
    return ScalarField(grid, data.copy())
