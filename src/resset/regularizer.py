"""Diversity regularizer: negative nuclear norm of an unfolded feature matrix.

Minimizing it pushes the whole singular spectrum of the feature matrix up,
which counteracts the tendency of trained features to collapse onto a few
dominant components. The gradient is the classic nuclear-norm subgradient
-U V^T restricted to the numerically nonzero part of the spectrum. For the
wide, well-conditioned feature matrices of training it is computed from the
small Gram matrix F F^T (Ionescu et al., ICCV 2015, "Matrix Backpropagation
for Deep Networks with Structured Layers"); every other input falls back to a
thin SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rank import Spectrum
from .tensor import UnfoldedMatrix, svd

SINGULAR_CUTOFF = 1e-12

# The Gram path squares the condition number. Forming G = F F^T and
# decomposing it perturbs every eigenvalue by about eps * lam_max, where
# eps ~ sqrt(N) * 2^-53 for rows of N entries (2e-14 at the toy run's
# N = 31744). A singular value sqrt(lam) then carries a relative error of
# about eps * lam_max / (2 * lam), and the gradient G^(-1/2) F an absolute
# error of about eps * lam_max / lam_min. Taking the Gram path only when
# lam_min > GRAM_MIN_RATIO * lam_max bounds both near 2e-6, 50x under the
# 1e-4 gradient tolerance of acceptance criterion 3, and keeps the toy feature
# matrix (lam_min / lam_max ~ 3e-6) on it. Below the ratio the SVD resolves
# what the Gram matrix cannot.
GRAM_MIN_RATIO = 1e-8


@dataclass(frozen=True)
class RegResult:
    """Penalty value, its gradient w.r.t. the input matrix, and the spectrum."""

    value: float
    gradient: UnfoldedMatrix
    spectrum: Spectrum


@dataclass(frozen=True)
class DiversityHook:
    """Loss-term hook: weight applied to the last-layer diversity penalty."""

    reg_weight: float

    def __post_init__(self):
        if self.reg_weight < 0:
            raise ConfigError(f"regularizer weight must be >= 0, got {self.reg_weight}")

    @property
    def active(self) -> bool:
        return self.reg_weight > 0.0


def nuclear_penalty(mat: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Value ``-||F||_*``, its (sub)gradient, and the singular values of ``F``.

    The gradient is ``-(F F^T)^(-1/2) F``, which equals ``-U V^T`` on a
    full-rank ``F``. A wide ``F`` whose Gram matrix passes the
    ``GRAM_MIN_RATIO`` test takes it from the eigendecomposition of the
    rows x rows Gram matrix. Every other input (tall, zero, rank-deficient or
    ill-conditioned) takes a thin SVD, keeping the singular values above
    ``SINGULAR_CUTOFF`` times the largest. Singular values come back
    non-increasing.
    """
    rows, cols = mat.shape
    if 0 < rows <= cols:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow falls back below
            gram = mat @ mat.T
        if np.all(np.isfinite(gram)):
            lam, u = np.linalg.eigh(gram)
            if lam[0] > GRAM_MIN_RATIO * lam[-1]:
                s = np.sqrt(lam)
                return -float(np.sum(s)), -((u / s) @ (u.T @ mat)), s[::-1]
    decomp = svd(UnfoldedMatrix(mat))
    s = decomp.singular_values
    value = -float(np.sum(s))
    if s.size == 0 or s[0] == 0.0:
        return value, np.zeros(mat.shape), s
    keep = s > SINGULAR_CUTOFF * s[0]
    return value, -(decomp.left_factor[:, keep] @ decomp.right_factor[:, keep].T), s


def da_reg_value(f_mat: UnfoldedMatrix) -> float:
    """Negative sum of singular values; zero exactly for the zero matrix."""
    return nuclear_penalty(f_mat.data)[0]


def da_reg_grad(f_mat: UnfoldedMatrix) -> UnfoldedMatrix:
    """Subgradient -U V^T over the numerically nonzero singular values."""
    return UnfoldedMatrix(nuclear_penalty(f_mat.data)[1], origin=f_mat.origin)


def da_reg(f_mat: UnfoldedMatrix) -> RegResult:
    """Value, gradient, and normalized spectrum in one decomposition."""
    value, grad, s = nuclear_penalty(f_mat.data)
    if s.size == 0 or s[0] == 0.0:
        spectrum = Spectrum(values=np.empty(0))
    else:
        spectrum = Spectrum(values=s / s[0])
    return RegResult(
        value=value,
        gradient=UnfoldedMatrix(grad, origin=f_mat.origin),
        spectrum=spectrum,
    )


def attach_last_layer(net, reg_weight: float) -> DiversityHook:
    """Attach the diversity penalty to a network's last feature layer.

    During training the hook unfolds the final pre-output feature map to
    channels x (B*H*W), adds ``reg_weight`` times the penalty to the loss, and
    routes the matching gradient into that layer's backward signal. A zero
    weight leaves the training trajectory bit-identical to an unhooked run.
    """
    if getattr(net, "num_blocks", 0) < 1:
        raise ConfigError("network has no feature layer to regularize")
    hook = DiversityHook(reg_weight=reg_weight)
    net.diversity_hook = hook
    return hook
