"""Kernel layouts and forward convolutions for every supported scheme.

A scheme describes how one convolutional "set" is factorized over the three
axes of a (channels, bands, height, width) volume: a dense 3-D kernel, three
axis-symmetric low-dimensional branches run in parallel, a sequential chain of
1-D (or 1-D then 2-D) layers, or a two-branch 1-D + 2-D split. A network
block (see ``network.py``) follows a parallel set with a 1x1x1 compression
back to the nominal channel count.

All convolutions use stride 1 and symmetric "same" zero padding, so spatial
and spectral extents are preserved everywhere. Every scheme, chains included,
has one joint kernel matrix that maps the unfolded k^3*C patches to the set's
output channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError, ShapeError

LEAKY_SLOPE = 0.2


class SchemeVariant(Enum):
    CONV3D = "conv3d"
    RES3_2D = "res3_2d"
    RES3_1D = "res3_1d"
    RES3_1DX3 = "res3_1dx3"
    SEQ1D = "seq1d"
    SEQ1D2D = "seq1d2d"
    PAR1D2D = "par1d2d"


# One row per variant: its branch windows as (band, height, width) patterns,
# "k" spanning the kernel extent and "1" one tap, and whether the branches are
# chained. Parallel branches go band, height, width axis (a 2-D branch spans
# the plane complementary to its axis); chained stages go in application order.
_LAYOUTS: dict[SchemeVariant, tuple[tuple[str, ...], bool]] = {
    SchemeVariant.CONV3D: (("kkk",), False),
    SchemeVariant.RES3_2D: (("1kk", "k1k", "kk1"), False),
    SchemeVariant.RES3_1D: (("k11", "1k1", "11k"), False),
    SchemeVariant.RES3_1DX3: (("k11", "1k1", "11k"), False),
    SchemeVariant.SEQ1D: (("k11", "1k1", "11k"), True),
    SchemeVariant.SEQ1D2D: (("k11", "1kk"), True),
    SchemeVariant.PAR1D2D: (("1kk", "k11"), False),
}

# Config token -> (variant, L). A scheme's own token is the first one that
# names it, and its allowed L values are those its tokens carry.
_TOKENS: dict[str, tuple[SchemeVariant, int]] = {
    "conv3d": (SchemeVariant.CONV3D, 1),
    "res3_2d": (SchemeVariant.RES3_2D, 1),
    "res3_1d": (SchemeVariant.RES3_1D, 1),
    "res3_1d_l1": (SchemeVariant.RES3_1D, 1),
    "res3_1d_l2": (SchemeVariant.RES3_1D, 2),
    "res3_1dx3": (SchemeVariant.RES3_1DX3, 3),
    "seq1d": (SchemeVariant.SEQ1D, 1),
    "seq1d2d": (SchemeVariant.SEQ1D2D, 1),
    "par1d2d": (SchemeVariant.PAR1D2D, 1),
}


@dataclass(frozen=True)
class KernelScheme:
    """Which convolution manner to use, with kernel extent k and multiplier L."""

    variant: SchemeVariant
    k: int = 3
    L: int = 1

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ConfigError(f"kernel extent must be a positive odd integer, got {self.k}")
        allowed = sorted({ell for v, ell in _TOKENS.values() if v is self.variant})
        if self.L not in allowed:
            raise ConfigError(f"{self.variant.value} supports L in {allowed}, got L={self.L}")

    @property
    def is_res3(self) -> bool:  # a ReS³ set: one parallel branch per axis
        return not self.chained and len(_LAYOUTS[self.variant][0]) == 3

    @property
    def is_parallel(self) -> bool:  # several branches, so a block compresses them
        return not self.chained and len(_LAYOUTS[self.variant][0]) > 1

    @property
    def chained(self) -> bool:  # stages applied one after another
        return _LAYOUTS[self.variant][1]

    @property
    def token(self) -> str:
        return next(t for t, named in _TOKENS.items() if named == (self.variant, self.L))


def parse_scheme_token(token: str, k: int = 3) -> KernelScheme:
    """Parse a config token like ``conv3d`` or ``res3_1d_l2`` into a scheme."""
    name = token.strip().lower()
    if name not in _TOKENS:
        raise ConfigError(f"unknown scheme {token!r}; valid: {', '.join(sorted(_TOKENS))}")
    variant, ell = _TOKENS[name]
    return KernelScheme(variant=variant, k=k, L=ell)


def branch_extents(scheme: KernelScheme) -> tuple[tuple[int, int, int], ...]:
    """Per-branch (band, height, width) window extents, in table order."""
    windows, _ = _LAYOUTS[scheme.variant]
    return tuple(tuple(scheme.k if axis == "k" else 1 for axis in w) for w in windows)


def expected_weight_shapes(scheme: KernelScheme, m: int, c: int) -> tuple[tuple[int, ...], ...]:
    """Compact weight-array shapes per branch (or per sequential stage). Every
    parallel branch maps C to L*M channels; a chain maps C to M, then M to M."""
    shapes = []
    for i, extents in enumerate(branch_extents(scheme)):
        taps = tuple(e for e in extents if e > 1) or (1,)
        out_ch = m if scheme.chained else scheme.L * m
        in_ch = m if scheme.chained and i > 0 else c
        shapes.append((out_ch, in_ch) + taps)
    return tuple(shapes)


def rank_upper_bound(scheme: KernelScheme, m: int) -> int:
    """Row count of the scheme's joint kernel matrix, which bounds the rank of
    its output feature matrix: the channels the scheme produces before any
    1x1x1 compression, L*M per parallel branch or M for a whole chain."""
    windows, chained = _LAYOUTS[scheme.variant]
    return m if chained else len(windows) * scheme.L * m


def param_count(scheme: KernelScheme, m: int, c: int) -> int:
    """Convolution weights per set, excluding compression and aggregation."""
    return sum(prod(shape) for shape in expected_weight_shapes(scheme, m, c))


def compression_param_count(scheme: KernelScheme, m: int) -> int:
    """Weights in the 1x1x1 compression layer (zero for single-path schemes)."""
    if scheme.is_parallel:
        return m * rank_upper_bound(scheme, m)
    return 0


def mac_count(scheme: KernelScheme, m: int, c: int, grid: int) -> int:
    """Multiply-accumulate operations for one forward pass over ``grid`` positions."""
    return param_count(scheme, m, c) * grid


def compression_mac_count(scheme: KernelScheme, m: int, grid: int) -> int:
    return compression_param_count(scheme, m) * grid


@dataclass(frozen=True)
class KernelSet:
    """A scheme plus its concrete weights: one compact array per branch
    (parallel schemes) or per stage (sequential schemes)."""

    scheme: KernelScheme
    out_channels: int
    in_channels: int
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        m, c = self.out_channels, self.in_channels
        if m < 1 or c < 1:
            raise ConfigError(f"channel counts must be >= 1, got M={m}, C={c}")
        expected = expected_weight_shapes(self.scheme, m, c)
        if len(self.weights) != len(expected):
            raise ShapeError(
                f"{self.scheme.token} expects {len(expected)} weight arrays, got {len(self.weights)}"
            )
        frozen = []
        for w, shape in zip(self.weights, expected):
            arr = np.ascontiguousarray(w, dtype=np.float64)
            if arr.shape != shape:
                raise ShapeError(f"weight shape {arr.shape} != expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise NumericError("kernel weights contain non-finite entries")
            frozen.append(arr)
        object.__setattr__(self, "weights", tuple(frozen))


def random_weights(
    scheme: KernelScheme, m: int, c: int, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, ...]:
    """Standard-normal weights for a batch of draws: one array per branch (or
    stage) with a leading draw axis. Draw ``s`` takes all its weights from
    ``rngs[s]``, branch by branch in table order, which is the order that
    defines ``random_kernel_set``."""
    stacks = tuple(np.empty((len(rngs),) + shape) for shape in expected_weight_shapes(scheme, m, c))
    for row, rng in enumerate(rngs):
        for stack in stacks:
            rng.standard_normal(out=stack[row])
    return stacks


def random_kernel_set(scheme: KernelScheme, m: int, c: int, rng: np.random.Generator) -> KernelSet:
    """Draw a kernel set with standard-normal weights."""
    return KernelSet(scheme, m, c, tuple(w[0] for w in random_weights(scheme, m, c, [rng])))


def zero_kernel_set(scheme: KernelScheme, m: int, c: int) -> KernelSet:
    weights = tuple(np.zeros(s) for s in expected_weight_shapes(scheme, m, c))
    return KernelSet(scheme, m, c, weights)


def _window(extents: tuple[int, ...], k: int) -> tuple[slice, ...]:
    """Slices of a k x k x k window that centre a kernel of these extents."""
    return tuple(slice((k - e) // 2, (k + e) // 2) for e in extents)


def _support(scheme: KernelScheme) -> np.ndarray:
    """The taps of the k x k x k grid that any row block of the joint kernel
    matrix spans: the union of the branch windows, or a chain's one window
    spanning every axis a stage spans."""
    k, blocks = scheme.k, branch_extents(scheme)
    if scheme.chained:
        blocks = (tuple(map(max, zip(*blocks))),)
    support = np.zeros((k, k, k), dtype=bool)
    for extents in blocks:
        support[_window(extents, k)] = True
    return support


def kernel_matrices(
    scheme: KernelScheme, weights: tuple[np.ndarray, ...], valid_only: bool = False
) -> np.ndarray:
    """Joint zero-replenished kernel matrices of a batch of draws, shape
    (draws, rows, k^3*C), from one weight array per branch or stage with a
    leading draw axis.

    Each row block is one (out, C, *extents) kernel embedded, centred, in a
    zero k x k x k window: a parallel branch's weights, in branch order, or a
    whole chain. A chain's stages act on disjoint axes, so their composition
    is their per-axis product and the chain is one same-padded convolution
    with it, borders included. Columns are ordered channel-major, then by
    band, row and column offset in the window, the row order of an im2col
    patch matrix of the same-padded input. With ``valid_only`` only the
    ``valid_columns`` are built, in the same order; the others are zero for
    any weights.
    """
    k = scheme.k
    kernels = [w.reshape(w.shape[:3] + e) for w, e in zip(weights, branch_extents(scheme))]
    if scheme.chained:
        composed = kernels[0]
        for stage in kernels[1:]:
            composed = (stage[:, :, :, None] * composed[:, None]).sum(axis=2)
        kernels = [composed]
    taps = _support(scheme) if valid_only else np.ones((k, k, k), dtype=bool)
    column = np.cumsum(taps).reshape(taps.shape) - 1  # each kept tap's column within a channel
    draws, _, c = kernels[0].shape[:3]
    rows = sum(kernel.shape[1] for kernel in kernels)
    joint = np.zeros((draws, rows, c, int(taps.sum())))
    row = 0
    for kernel in kernels:
        out = kernel.shape[1]
        block = column[_window(kernel.shape[3:], k)].ravel()
        joint[:, row : row + out, :, block] = kernel.reshape(draws, out, c, -1)
        row += out
    return joint.reshape(draws, rows, -1)


def build_kernel_matrix(ks: KernelSet) -> np.ndarray:
    """The joint kernel matrix of one kernel set, rows x k^3*C: see
    ``kernel_matrices``."""
    return kernel_matrices(ks.scheme, tuple(w[None] for w in ks.weights))[0]


def valid_columns(scheme: KernelScheme, c: int) -> np.ndarray:
    """Boolean mask of the joint kernel matrix's columns with any structurally
    nonzero entry: the window support tiled over the C input channels in
    ``kernel_matrices``'s channel-major column order. Every other column is
    zero for any weights."""
    return np.tile(_support(scheme).ravel(), c)


def valid_column_count(scheme: KernelScheme, c: int) -> int:
    """Columns of the joint kernel matrix with any structurally nonzero entry."""
    return int(valid_columns(scheme, c).sum())


def set_forward(scheme: KernelScheme, weights: list[ad.Node], x: ad.Node) -> ad.Node:
    """Taped convolution set: parallel schemes concatenate their branches along
    the channel axis in the fixed branch order; sequential schemes chain their
    stages without intermediate nonlinearities."""
    extents = branch_extents(scheme)
    if not scheme.chained:
        parts = [ad.branch_conv(w, x, e) for w, e in zip(weights, extents)]
        return parts[0] if len(parts) == 1 else ad.concat_channels(parts)
    out = x
    for w, e in zip(weights, extents):
        out = ad.branch_conv(w, out, e)
    return out
