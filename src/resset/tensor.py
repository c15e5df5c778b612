"""Dense 4-D feature volumes, the linear algebra on plain 2-D arrays, and the
tensor file format.

A ``FeatureMap`` is a finite 64-bit volume, immutable once constructed, laid
out (channels, bands, height, width), row-major with width innermost. Kernel
and feature matrices are plain 2-D arrays: ``matmul_nt`` is the
column-blocked product that the training tape and the penalty's Gram matrix
share, and ``singular_values`` and ``numeric_rank`` decompose one in a
single SVD. ``r_factor`` reduces a matrix, or a volume read as one with its
channels as rows, to an R factor with the same singular values, one float64
column block at a time, so a feature's spectrum needs no float64 copy of the
feature.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np

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
    """Singular values of a 2-D array, non-increasing, from one SVD without
    factors. A wide matrix is decomposed as its transpose, which has the
    same values: LAPACK's path for tall matrices (QR first) is faster than
    its path for wide ones (LQ first): 36 against 56 us on an 8 x 216 matrix
    (2-core Xeon VM, OpenBLAS 0.3.31, medians). LAPACK decomposes a float64
    copy of ``mat``, so a matrix far wider than it is tall, such as a
    training run's feature, goes through ``r_factor`` first."""
    return np.linalg.svd(mat.T if mat.shape[0] < mat.shape[1] else mat, compute_uv=False)


# Columns per step of ``r_factor``. Each step stacks ``rows + QR_BLOCK_COLUMNS``
# float64 rows, and ``np.linalg.qr`` copies the stack twice more. At the
# 24 rows of the benchmark's features each of a step's arrays (103 KB) stays
# under glibc's 128 KiB mmap threshold and is reused from the heap step after
# step; wider blocks make larger copies (0.2 MB at 1024 columns, 0.8 MB at
# 4096), which pass that threshold and, once glibc has raised it
# (mallopt(3)), are served by the heap, which keeps their pages resident.
# The figure holds for 24 rows only: at 72 rows (res3_1dx3 at width 8) a
# step's arrays are 336 KB, past the threshold, and no feature with more
# than 24 rows was measured.
QR_BLOCK_COLUMNS = 512


def _copy_columns(out: np.ndarray, x: np.ndarray, lo: int) -> None:
    """Cast columns ``lo`` to ``lo + out.shape[1]`` of ``x`` unfolded to
    (rows, -1) in C order into ``out``. ``x`` may be any strided view, such
    as a convolution's output cropped from its padded grid: the column range
    splits into at most two partial slices and one whole one per axis, each
    a rectangular view of ``x`` written by one ``np.copyto``, so nothing the
    size of ``x`` is copied."""
    n = out.shape[1]
    if x.ndim == 2:
        np.copyto(out, x[:, lo : lo + n])
        return
    inner = prod(x.shape[2:])
    first, start = divmod(lo, inner)
    last, stop = divmod(lo + n, inner)
    if first == last:
        _copy_columns(out, x[:, first], start)
        return
    done = 0
    if start:
        done = inner - start
        _copy_columns(out[:, :done], x[:, first], start)
        first += 1
    if last > first:
        whole = x[:, first:last]
        np.copyto(out[:, done : done + whole[0].size].reshape(whole.shape), whole)
        done += whole[0].size
    if stop:
        _copy_columns(out[:, done:], x[:, last], 0)


def r_factor(x: np.ndarray) -> np.ndarray:
    """The float64 R factor of ``A.T``'s Householder QR, where ``A`` is
    ``x`` unfolded to (rows, n) in C order, in any float dtype: an upper
    triangle of min(rows, n) x rows with ``R.T @ R = A @ A.T``, so R has A's
    singular values (Chan 1982, "An improved algorithm for computing the
    singular value decomposition").

    The QR is reduced ``QR_BLOCK_COLUMNS`` columns of A at a time (the
    sequential tall-skinny QR of Demmel et al. 2012, "Communication-optimal
    parallel and sequential QR and LU factorizations"): each step stacks the
    running R on top of the next block's transpose, cast exactly into one
    float64 buffer of (rows + QR_BLOCK_COLUMNS) x rows, and keeps the R of
    the stack. A block is the same column range whatever ``x``'s memory
    layout, so a view and its contiguous copy give the same bits. Non-finite entries raise
    ``NumericError``, checked one block at a time. A singular value is off
    by at most a small multiple of machine epsilon times the largest, as in
    an SVD of A; a Gram matrix ``A @ A.T`` would lose the tail below
    ``sqrt(eps)`` times the largest."""
    rows, cols = x.shape[0], QR_BLOCK_COLUMNS
    n = x.size // rows
    if x.flags.c_contiguous:
        x = x.reshape(rows, n)
    stack = np.empty((rows + cols, rows))
    r = stack[:0]
    for lo in range(0, n, cols):
        k, width = r.shape[0], min(cols, n - lo)
        stack[:k] = r
        block = stack[k : k + width]
        _copy_columns(block.T, x, lo)
        if not np.isfinite(block).all():
            raise NumericError("cannot decompose a matrix with non-finite entries")
        r = np.linalg.qr(stack[: k + width], mode="r")
    return r


def numeric_rank(mat: np.ndarray, rel_tol: float = 1e-9) -> int:
    """Number of singular values of a 2-D array above ``rel_tol`` times the
    largest one."""
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if not np.all(np.isfinite(mat)):
        raise NumericError("cannot rank a matrix with non-finite entries")
    s = singular_values(mat)
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
