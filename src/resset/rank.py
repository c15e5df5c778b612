"""Kernel-matrix rank audits and feature singular spectra.

The joint kernel matrix of each scheme, chains included, caps the rank of
the output feature matrix at its own rank, which in turn is capped by the
smaller of its row count (``schemes.rank_upper_bound``) and its structurally
nonzero column count. Audits draw random weights and check that generic
draws actually reach that cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .schemes import (
    KernelScheme,
    KernelSet,
    build_kernel_matrix,
    random_kernel_set,
    rank_upper_bound,
    valid_columns,
)
from .tensor import FeatureMap, UnfoldedMatrix, numeric_rank

AUDIT_RANK_TOL = 1e-6


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

    Each seed redraws standard-normal weights with the structure of ``ks``;
    with ``zero_weights`` the draws are replaced by all-zero weights, which
    pins the measured rank at zero. Each draw's rank is that of its rows x
    ``schemes.valid_columns`` submatrix. The columns left out are exactly
    zero, so dropping them leaves K K^T, and with it every singular value,
    unchanged: the decomposition is smaller, not approximate.
    """
    if seeds < 1:
        raise ConfigError(f"need at least one seed, got {seeds}")
    scheme, m, c = ks.scheme, ks.out_channels, ks.in_channels
    bound = rank_upper_bound(scheme, m)
    mask = valid_columns(scheme, c)
    columns = int(mask.sum())
    ranks = []
    for s in range(seeds):
        if zero_weights:
            draw = KernelSet(scheme, m, c, tuple(np.zeros_like(w) for w in ks.weights))
        else:
            rng = np.random.default_rng(np.random.SeedSequence((rng_seed, s)))
            draw = random_kernel_set(scheme, m, c, rng)
        kernel = UnfoldedMatrix(build_kernel_matrix(draw).data[:, mask])
        ranks.append(numeric_rank(kernel, rel_tol=rel_tol))
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
    s = np.linalg.svd(mat, compute_uv=False)
    return Spectrum(values=s / s[0])


def tail_mass(spectrum: Spectrum, head: int) -> float:
    """Fraction of the normalized singular-value sum at indices >= ``head``."""
    if head < 0:
        raise ConfigError(f"head must be >= 0, got {head}")
    if spectrum.is_empty:
        return 0.0
    total = float(spectrum.values.sum())
    return float(spectrum.values[head:].sum()) / total
