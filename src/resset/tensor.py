"""Dense 4-D feature volumes, their 2-D matrix views, and the linear algebra on them.

Everything is 64-bit and immutable once constructed. The volume layout is
(channels, bands, height, width), row-major with width innermost.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    DegenerateKernel,
    InvalidKernel,
    NumericError,
    ShapeError,
)

TENSOR_MAGIC = b"RST1"
TENSOR_MAX_RANK = 32  # the most dimensions every numpy release supports

MATRIX_ORIGINS = ("kernel", "feature", "patches")


@dataclass(frozen=True)
class Shape4:
    """Extents of a feature volume: channels, bands, height, width."""

    channels: int
    bands: int
    height: int
    width: int

    def __post_init__(self):
        extents = (self.channels, self.bands, self.height, self.width)
        if any(not isinstance(e, (int, np.integer)) or e < 1 for e in extents):
            raise ShapeError(f"all extents must be integers >= 1, got {extents}")

    @property
    def volume(self) -> int:
        return self.channels * self.bands * self.height * self.width

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.channels, self.bands, self.height, self.width)


@dataclass(frozen=True)
class FeatureMap:
    """A finite (channels, bands, height, width) volume of 64-bit floats."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"feature map must be 4-D, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"all extents must be >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("feature map contains non-finite entries")
        if arr is self.data:
            arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> Shape4:
        return Shape4(*map(int, self.data.shape))

    @property
    def channels(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class UnfoldedMatrix:
    """2-D matrix view of kernels, features, or gathered patches."""

    data: np.ndarray
    origin: str = "feature"

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got ndim={arr.ndim}")
        if self.origin not in MATRIX_ORIGINS:
            raise ConfigError(f"unknown matrix origin {self.origin!r}")
        if arr is self.data:
            arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SVDResult:
    """Thin SVD: singular values plus orthonormal left/right factors."""

    singular_values: np.ndarray
    left_factor: np.ndarray
    right_factor: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left_factor * self.singular_values) @ self.right_factor.T


def _check_extent(extent: int, dim: int, axis: str) -> None:
    if not isinstance(extent, (int, np.integer)) or extent < 1 or extent % 2 == 0:
        raise InvalidKernel(f"{axis} extent must be a positive odd integer, got {extent}")
    if extent > 2 * dim + 1:
        raise DegenerateKernel(
            f"{axis} extent {extent} exceeds 2*{dim}+1 for input extent {dim}"
        )


def unfold_patches(
    fmap: FeatureMap,
    extents: tuple[int, int, int],
    padding: str = "same",
) -> UnfoldedMatrix:
    """Gather sliding windows into a patches matrix.

    Rows are ordered channel-major, then band, row, and column offsets; columns
    follow row-major traversal of the output positions. With ``same`` zero
    padding and stride 1 the output grid equals the input grid, so the result
    has ``kB*kH*kW*C`` rows and ``B*H*W`` columns.
    """
    if padding != "same":
        raise ConfigError(f"only 'same' padding is supported, got {padding!r}")
    kb, kh, kw = extents
    c, b, h, w = fmap.data.shape
    _check_extent(kb, b, "band")
    _check_extent(kh, h, "height")
    _check_extent(kw, w, "width")
    pads = ((0, 0), ((kb - 1) // 2,) * 2, ((kh - 1) // 2,) * 2, ((kw - 1) // 2,) * 2)
    padded = np.pad(fmap.data, pads)
    windows = sliding_window_view(padded, (kb, kh, kw), axis=(1, 2, 3))
    cols = windows.transpose(0, 4, 5, 6, 1, 2, 3).reshape(c * kb * kh * kw, b * h * w)
    return UnfoldedMatrix(cols, origin="patches")


def unfold_channels(fmap: FeatureMap) -> UnfoldedMatrix:
    """Flatten a volume to its channels x (bands*height*width) matrix."""
    c = fmap.data.shape[0]
    return UnfoldedMatrix(fmap.data.reshape(c, -1), origin="feature")


def fold_channels(mat: UnfoldedMatrix, bands: int, height: int, width: int) -> FeatureMap:
    """Inverse of :func:`unfold_channels` for a known output grid."""
    if mat.cols != bands * height * width:
        raise ShapeError(
            f"cannot fold {mat.rows}x{mat.cols} matrix into grid {bands}x{height}x{width}"
        )
    return FeatureMap(mat.data.reshape(mat.rows, bands, height, width))


def matmul(a: UnfoldedMatrix, b: UnfoldedMatrix) -> UnfoldedMatrix:
    """Exact 64-bit matrix product."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return UnfoldedMatrix(a.data @ b.data, origin="feature")


def svd(m: UnfoldedMatrix) -> SVDResult:
    """Thin SVD with non-increasing singular values."""
    if not np.all(np.isfinite(m.data)):
        raise NumericError("cannot decompose a matrix with non-finite entries")
    u, s, vh = np.linalg.svd(m.data, full_matrices=False)
    return SVDResult(singular_values=s, left_factor=u, right_factor=vh.T)


def numeric_rank(m: UnfoldedMatrix, rel_tol: float = 1e-9) -> int:
    """Number of singular values above ``rel_tol`` times the largest one."""
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if not np.all(np.isfinite(m.data)):
        raise NumericError("cannot rank a matrix with non-finite entries")
    s = np.linalg.svd(m.data, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write an array in the portable tensor format.

    Layout: magic ``RST1``, little-endian u32 rank, one little-endian u32 per
    extent, then the raw 64-bit little-endian floats in row-major order.
    """
    arr = np.ascontiguousarray(array, dtype="<f8")
    header = TENSOR_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    Path(path).write_bytes(header + arr.tobytes())


def read_tensor(path: str | Path) -> np.ndarray:
    """Read an array written by :func:`write_tensor`.

    The header and the payload length are checked against each other, so a
    truncated file, a file with trailing bytes, or a corrupt rank or extent
    raises :class:`ConfigError` instead of being trusted.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != TENSOR_MAGIC:
        raise ConfigError(f"{path}: bad magic bytes {raw[:4]!r}")
    if len(raw) < 8:
        raise ConfigError(f"{path}: truncated header ({len(raw)} bytes)")
    (ndim,) = struct.unpack_from("<I", raw, 4)
    if ndim > TENSOR_MAX_RANK:
        raise ConfigError(f"{path}: rank {ndim} exceeds {TENSOR_MAX_RANK}")
    offset = 8 + 4 * ndim
    if len(raw) < offset:
        raise ConfigError(f"{path}: truncated header for rank {ndim}")
    shape = struct.unpack_from(f"<{ndim}I", raw, 8)
    expected = offset + 8 * prod(shape)
    if len(raw) != expected:
        raise ConfigError(
            f"{path}: payload of {len(raw) - offset} bytes, shape {shape} needs {expected - offset}"
        )
    return np.frombuffer(raw, dtype="<f8", offset=offset).reshape(shape).astype(np.float64)
