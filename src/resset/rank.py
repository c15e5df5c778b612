"""Kernel-matrix rank audits and feature singular spectra.

The joint kernel matrix of each scheme, chains included, caps the rank of
the output feature matrix at its own rank, which in turn is capped by the
smaller of its row count (``schemes.rank_upper_bound``) and its structurally
nonzero column count. Audits draw random weights and check that generic
draws actually reach that cap. They draw a batch of seeds at once and build
the whole batch's kernel matrices in one ``schemes.kernel_matrices`` call,
the construction behind ``build_kernel_matrix`` too; each draw is then
ranked on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .schemes import (
    KernelScheme,
    KernelSet,
    expected_weight_shapes,
    kernel_matrices,
    random_weights,
    rank_upper_bound,
    valid_column_count,
)
from .tensor import FeatureMap, UnfoldedMatrix, numeric_rank, singular_values

AUDIT_RANK_TOL = 1e-6
# Most draws an audit builds at once. A batch removes the per-draw Python
# overhead of drawing and building. Sweeps of six schemes at m = c = 8 with 8
# draws each, alternated with per-draw building on a 2-core Xeon VM, took
# 0.99, 0.85, 0.77 and 0.72 of its time with batches of 1, 2, 4 and 8; at 32
# draws, batches of 16 and 32 took only 0.03 and 0.06 less than batches of 8.
# The cap keeps an audit's memory flat however many seeds it runs.
AUDIT_BATCH = 8


@dataclass(frozen=True)
class RankAudit:
    """Outcome of a multi-seed rank audit for one scheme instance."""

    scheme: KernelScheme
    out_channels: int
    in_channels: int
    predicted_bound: int
    valid_columns: int
    measured_rank: int
    achieved: bool
    seed_ranks: tuple[int, ...]


@dataclass(frozen=True)
class Spectrum:
    """Non-increasing singular values normalized so the largest equals 1."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", arr)

    @property
    def is_empty(self) -> bool:
        return self.values.size == 0


def audit_kernel_rank(
    ks: KernelSet,
    seeds: int,
    rng_seed: int = 0,
    rel_tol: float = AUDIT_RANK_TOL,
    zero_weights: bool = False,
) -> RankAudit:
    """Measure the joint kernel-matrix rank over independent weight draws.

    Each seed redraws standard-normal weights with the structure of ``ks``
    from its own ``SeedSequence((rng_seed, seed))`` stream, exactly as
    ``random_kernel_set`` would; with ``zero_weights`` the draws are replaced
    by all-zero weights, which pins the measured rank at zero. Up to
    ``AUDIT_BATCH`` draws are built at once, but each is ranked by its own
    ``numeric_rank`` call on its rows x ``schemes.valid_columns`` submatrix.
    The columns left out are exactly zero, so dropping them leaves K K^T, and
    with it every singular value, unchanged: the decomposition is smaller,
    not approximate.
    """
    if seeds < 1:
        raise ConfigError(f"need at least one seed, got {seeds}")
    scheme, m, c = ks.scheme, ks.out_channels, ks.in_channels
    bound = rank_upper_bound(scheme, m)
    columns = valid_column_count(scheme, c)
    ranks = []
    for first in range(0, seeds, AUDIT_BATCH):
        batch = range(first, min(first + AUDIT_BATCH, seeds))
        if zero_weights:
            shapes = expected_weight_shapes(scheme, m, c)
            weights = tuple(np.zeros((len(batch),) + shape) for shape in shapes)
        else:
            rngs = [np.random.default_rng(np.random.SeedSequence((rng_seed, s))) for s in batch]
            weights = random_weights(scheme, m, c, rngs)
        for kernel in kernel_matrices(scheme, weights, valid_only=True):
            ranks.append(numeric_rank(UnfoldedMatrix(kernel), rel_tol=rel_tol))
    measured = max(ranks)
    return RankAudit(
        scheme=scheme,
        out_channels=m,
        in_channels=c,
        predicted_bound=bound,
        valid_columns=columns,
        measured_rank=measured,
        achieved=measured == min(bound, columns),
        seed_ranks=tuple(ranks),
    )


def feature_spectrum(fmap: FeatureMap) -> Spectrum:
    """Singular values of the channels x (B*H*W) matrix, scaled by the largest.

    An all-zero map yields an empty spectrum rather than an error. The values
    come from an SVD without factors, not from the Gram matrix, so the tail
    keeps full precision.
    """
    mat = fmap.data.reshape(fmap.channels, -1)
    if not np.all(np.isfinite(mat)):
        raise NumericError("cannot decompose a matrix with non-finite entries")
    if not np.any(mat):
        return Spectrum(values=np.empty(0))
    s = singular_values(mat)
    return Spectrum(values=s / s[0])


def tail_mass(spectrum: Spectrum, head: int) -> float:
    """Fraction of the normalized singular-value sum at indices >= ``head``."""
    if head < 0:
        raise ConfigError(f"head must be >= 0, got {head}")
    if spectrum.is_empty:
        return 0.0
    total = float(spectrum.values.sum())
    return float(spectrum.values[head:].sum()) / total
