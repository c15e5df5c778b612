"""Dense 4-D feature volumes, their 2-D matrix views, and the linear algebra on them.

Everything is 64-bit and immutable once constructed. The volume layout is
(channels, bands, height, width), row-major with width innermost.
``matmul_nt`` is the one exception: the column-blocked product of raw arrays
that the training tape and the penalty's Gram matrix share.
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
    def channels(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class UnfoldedMatrix:
    """2-D matrix view of kernels, features, or gathered patches."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got ndim={arr.ndim}")
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


def check_extents(extents: tuple[int, int, int], grid: tuple[int, int, int]) -> None:
    """Reject a (band, height, width) window that is not positive and odd on
    every axis, or that exceeds ``2*dim+1`` on a (B, H, W) grid: past that the
    outer taps of a same-padded window read only padding at every position."""
    for extent, dim, axis in zip(extents, grid, ("band", "height", "width")):
        if not isinstance(extent, (int, np.integer)) or extent < 1 or extent % 2 == 0:
            raise InvalidKernel(f"{axis} extent must be a positive odd integer, got {extent}")
        if extent > 2 * dim + 1:
            raise DegenerateKernel(
                f"{axis} extent {extent} exceeds 2*{dim}+1 for input extent {dim}"
            )


def unfold_patches(fmap: FeatureMap, extents: tuple[int, int, int]) -> UnfoldedMatrix:
    """im2col over a same-padded window: the (C*kB*kH*kW, B*H*W) patch matrix.

    Rows are ordered channel-major, then band, row, and column offsets; columns
    follow row-major traversal of the output positions. With same zero padding
    and stride 1 the output grid equals the input grid, and a branch
    convolution is ``w.reshape(out, -1) @ unfold_patches(fmap, extents)``.
    """
    kb, kh, kw = extents
    c, b, h, w = fmap.data.shape
    check_extents(extents, (b, h, w))
    pads = ((0, 0), ((kb - 1) // 2,) * 2, ((kh - 1) // 2,) * 2, ((kw - 1) // 2,) * 2)
    windows = sliding_window_view(np.pad(fmap.data, pads), (kb, kh, kw), axis=(1, 2, 3))
    patches = windows.transpose(0, 4, 5, 6, 1, 2, 3).reshape(c * kb * kh * kw, b * h * w)
    return UnfoldedMatrix(patches)


def fold_channels(mat: UnfoldedMatrix, bands: int, height: int, width: int) -> FeatureMap:
    """Reshape a channels x (bands*height*width) matrix back into a volume."""
    if mat.cols != bands * height * width:
        raise ShapeError(
            f"cannot fold {mat.rows}x{mat.cols} matrix into grid {bands}x{height}x{width}"
        )
    return FeatureMap(mat.data.reshape(mat.rows, bands, height, width))


def matmul(a: UnfoldedMatrix, b: UnfoldedMatrix) -> UnfoldedMatrix:
    """Exact 64-bit matrix product."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return UnfoldedMatrix(a.data @ b.data)


def matmul_nt(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, cols: int, scratch: np.ndarray | None = None
) -> np.ndarray:
    """``out = a @ b.T`` summed over column blocks ``cols`` wide: one product
    per block, the first written through ``out=`` and the others added.
    OpenBLAS runs such long-K products poorly in one call: in float32 over
    31744 columns, an 8 x 24 product took 0.47-0.55 ms in one call (in its
    faster orientation) and 0.30-0.32 ms in 4096-column blocks, an 8 x 8 one
    0.24-0.32 against 0.08 ms (2-core Xeon VM, OpenBLAS 0.3.31, medians of
    300 calls).

    A product with a one-row or one-column result, which BLAS runs as a
    matrix-vector product, is faster in one call: the lift's 8 x 1 and the
    projection's 1 x 8 weight gradients took 19-22 us in one call against
    41 us in blocks (float32, 31744 columns, medians of 300 calls), and
    50-53 against 69-72 us per call inside the toy training runs. It is
    formed in one call unless its blocks need a cast.

    The products are in ``out``'s dtype. A block of that dtype is a view. A
    Gram matrix (``b is a``) of a narrower ``a`` casts each block into
    ``scratch``, an array of ``out``'s dtype at least ``cols`` columns wide;
    the cast is exact, so only the sums round."""
    n = a.shape[1]
    if 1 in out.shape and a.dtype == out.dtype:
        cols = n
    for lo in range(0, n, cols):
        hi = min(lo + cols, n)
        left, right = a[:, lo:hi], b[:, lo:hi]
        if left.dtype != out.dtype:
            left = right = scratch[:, : hi - lo]
            np.copyto(left, a[:, lo:hi])
        if lo == 0:
            np.matmul(left, right.T, out=out)
        else:
            out += left @ right.T
    return out


def singular_values(mat: np.ndarray) -> np.ndarray:
    """Singular values of a 2-D array, non-increasing. A wide matrix is
    decomposed as its transpose, which has the same values: LAPACK's path
    for tall matrices (QR first) is faster than its path for wide ones (LQ
    first): 10.6 against 26.8 ms on a 24 x 31744 matrix, 36 against 56 us
    on an 8 x 216 one (2-core Xeon VM, OpenBLAS 0.3.31, medians)."""
    return np.linalg.svd(mat.T if mat.shape[0] < mat.shape[1] else mat, compute_uv=False)


def numeric_rank(m: UnfoldedMatrix, rel_tol: float = 1e-9) -> int:
    """Number of singular values above ``rel_tol`` times the largest one."""
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if not np.all(np.isfinite(m.data)):
        raise NumericError("cannot rank a matrix with non-finite entries")
    s = singular_values(m.data)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write an array in the portable tensor format.

    Layout: magic ``RST1``, little-endian u32 rank, one little-endian u32 per
    extent, then the raw 64-bit little-endian floats in row-major order.
    """
    arr = np.asarray(array, dtype="<f8")  # ascontiguousarray would turn shape () into (1,)
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
