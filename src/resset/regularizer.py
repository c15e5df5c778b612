"""Diversity regularizer: negative nuclear norm of an unfolded feature matrix.

Minimizing it rewards a large singular-value sum, meant to counteract the
tendency of trained features to collapse onto a few dominant components. It
does not push the whole spectrum up. ``-||F||_*`` is unbounded below along a
scale symmetry of the denoiser: the layers between ``F`` and the output
projection are positively homogeneous, so scaling them up and the projection
down leaves the output unchanged. In 300-epoch toy runs at lam=5e-5 against
lam=0, ``||F||_F`` grows 8x while the smallest singular value falls (2.08 to
0.99 on seed 3), so the head of the spectrum grows and its tail shrinks.

The gradient is the classic nuclear-norm subgradient -U V^T restricted to
the numerically nonzero part of the spectrum. For the wide,
well-conditioned feature matrices of training it is computed from the small
Gram matrix F F^T (Ionescu et al., ICCV 2015, "Matrix Backpropagation for
Deep Networks with Structured Layers"); every other input falls back to a
thin SVD. Either way it comes back as two factors, ``-(left @ right)``: the
rows x rows matrix ``G^(-1/2)`` with ``F`` itself, or ``U_k`` with
``V_k^T``. The taped penalty keeps only the small factor and forms the
product once, in its backward, already scaled by the upstream gradient, so
no rows x cols array is built in the forward pass.

The Gram matrix is float64 whatever ``F``'s dtype: it is summed over column
blocks (``tensor.matmul_nt``), and a float32 ``F`` is cast one block at a
time into block-sized float64 scratch that the caller lends, so no float64
copy of ``F`` is made. Only the SVD fallback casts the whole matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .tensor import UnfoldedMatrix, matmul_nt

SINGULAR_CUTOFF = 1e-12

# The Gram path squares the condition number. Forming G = F F^T and
# decomposing it perturbs every eigenvalue by about eps * lam_max, where
# eps ~ sqrt(N) * 2^-53 for rows of N entries (2e-14 at the toy run's
# N = 31744). A singular value sqrt(lam) then carries a relative error of
# about eps * lam_max / (2 * lam), and the gradient G^(-1/2) F an absolute
# error of about eps * lam_max / lam_min. Forming G^(-1/2) = U S^-1 U^T
# before multiplying by F adds about 2^-53 * s_max / s_min, at most about
# 2e-12 at the ratio. Summing G over column blocks adds one rounding per
# block, ceil(N / cols) - 1 of them, each at most 2^-53 * |G|: at most
# 7 * 2^-53 ~ 8e-16 for the toy run's 8 blocks of 4096 columns, under 4% of
# eps. A float32 F is cast to float64 exactly, so its products are exact and
# the same bound holds. Taking the Gram path only when
# lam_min > GRAM_MIN_RATIO * lam_max bounds the total near 2e-6, 50x under the
# 1e-4 gradient tolerance of acceptance criterion 3, and keeps the toy feature
# matrix (lam_min / lam_max ~ 3e-6) on it. Below the ratio the SVD resolves
# what the Gram matrix cannot.
GRAM_MIN_RATIO = 1e-8


def nuclear_penalty(
    mat: np.ndarray, scratch: np.ndarray | None = None, cols: int | None = None
) -> tuple[float, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Value ``-||F||_*``, its (sub)gradient as factors ``(left, right)`` with
    ``grad = -(left @ right)``, and the singular values of ``F``.

    The gradient is ``-(F F^T)^(-1/2) F``, which equals ``-U V^T`` on a
    full-rank ``F``. A wide ``F`` whose Gram matrix passes the
    ``GRAM_MIN_RATIO`` test takes it from the eigendecomposition of the
    rows x rows Gram matrix, as ``((F F^T)^(-1/2), F)``; ``F`` is returned
    itself, not copied. Every other input (tall, zero, rank-deficient or
    ill-conditioned) takes a thin SVD and returns ``(U_k, V_k^T)`` over the
    singular values above ``SINGULAR_CUTOFF`` times the largest, which is
    ``k = 0`` (a zero gradient) for the zero matrix. It does not return
    ``U_k S_k^-1 U_k^T``: near the cutoff that form amplifies rounding by up
    to ``s_max / s_min``. Singular values come back non-increasing.

    The Gram matrix and every decomposition are float64. The Gram matrix is
    summed over column blocks ``cols`` wide, by default as wide as
    ``scratch``, a float64 array of ``rows`` rows that blocks of a narrower
    ``mat`` are cast into; a float64 ``mat`` needs no scratch, and without
    either it is one product. The Gram path's ``F`` factor is ``mat`` in its
    own dtype; the SVD fallback decomposes a float64 cast of ``mat``.
    """
    rows, width = mat.shape
    if 0 < rows <= width:
        gram = np.empty((rows, rows))
        if cols is None:
            cols = width if scratch is None else scratch.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow falls back below
            matmul_nt(mat, mat, gram, cols, scratch)
        if np.all(np.isfinite(gram)):
            lam, u = np.linalg.eigh(gram)
            if lam[0] > GRAM_MIN_RATIO * lam[-1]:
                s = np.sqrt(lam)
                return -float(np.sum(s)), ((u / s) @ u.T, mat), s[::-1]
    if not np.all(np.isfinite(mat)):
        raise NumericError("cannot decompose a matrix with non-finite entries")
    u, s, vh = np.linalg.svd(mat.astype(np.float64, copy=False), full_matrices=False)
    keep = s > SINGULAR_CUTOFF * s.max(initial=0.0)
    return -float(np.sum(s)), (u[:, keep], vh[keep]), s


def da_reg_value(f_mat: UnfoldedMatrix) -> float:
    """Negative sum of singular values; zero exactly for the zero matrix."""
    return nuclear_penalty(f_mat.data)[0]


def da_reg_grad(f_mat: UnfoldedMatrix) -> UnfoldedMatrix:
    """Subgradient -U V^T over the numerically nonzero singular values."""
    left, right = nuclear_penalty(f_mat.data)[1]
    return UnfoldedMatrix(-(left @ right))
