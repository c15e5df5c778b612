"""Direct oracles for the library's kn2row branch convolution and its joint
kernel matrices.

The convolutions slice the padded 4-D volume once per kernel tap, so they
need none of the kernel's flattened column offsets, wrap-around cropping or
transposed backward loop; the weight gradient is written out the same way.
The kernel matrix is placed tap by tap, not through centred windows. The
im2col unfold gathers every window into one patch matrix, so a joint kernel
matrix times it is the convolution set as one matrix product."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from resset.schemes import KernelScheme, KernelSet, branch_extents


def unfold_patches(x: np.ndarray, extents: tuple[int, int, int]) -> np.ndarray:
    """im2col over a same-padded window: the (C*kB*kH*kW, B*H*W) patch matrix
    of a (C, B, H, W) volume.

    Rows are ordered channel-major, then band, row, and column offsets; columns
    follow row-major traversal of the output positions. With same zero padding
    and stride 1 the output grid equals the input grid, so a branch
    convolution is ``w.reshape(out, -1) @ unfold_patches(x, extents)``, and a
    scheme's set is ``build_kernel_matrix(ks) @ unfold_patches(x, (k, k, k))``.
    """
    kb, kh, kw = extents
    c, b, h, w = x.shape
    pads = ((0, 0), ((kb - 1) // 2,) * 2, ((kh - 1) // 2,) * 2, ((kw - 1) // 2,) * 2)
    windows = sliding_window_view(np.pad(x, pads), (kb, kh, kw), axis=(1, 2, 3))
    return windows.transpose(0, 4, 5, 6, 1, 2, 3).reshape(c * kb * kh * kw, b * h * w)


def tap_loop_conv(x: np.ndarray, w: np.ndarray, extents: tuple[int, int, int]) -> np.ndarray:
    """Direct same-padded branch convolution: one (out, in) tensordot per
    kernel tap over a shifted slice of the padded input."""
    _, b, h, wd = x.shape
    eb, eh, ew = extents
    pads = ((0, 0), ((eb - 1) // 2,) * 2, ((eh - 1) // 2,) * 2, ((ew - 1) // 2,) * 2)
    xp = np.pad(x, pads)
    w5 = w.reshape(w.shape[0], w.shape[1], eb, eh, ew)
    out = np.zeros((w.shape[0], b, h, wd))
    for db in range(eb):
        for dh in range(eh):
            for dw in range(ew):
                seg = xp[:, db : db + b, dh : dh + h, dw : dw + wd]
                out += np.tensordot(w5[:, :, db, dh, dw], seg, axes=(1, 0))
    return out


def tap_loop_weight_grad(x: np.ndarray, g: np.ndarray, extents: tuple[int, int, int]) -> np.ndarray:
    """Gradient of ``sum(tap_loop_conv(x, w, extents) * g)`` with respect to
    ``w``, as an (out, in, eb, eh, ew) array: one tensordot per kernel tap."""
    _, b, h, wd = x.shape
    eb, eh, ew = extents
    pads = ((0, 0), ((eb - 1) // 2,) * 2, ((eh - 1) // 2,) * 2, ((ew - 1) // 2,) * 2)
    xp = np.pad(x, pads)
    gw = np.zeros((g.shape[0], x.shape[0], eb, eh, ew))
    for db in range(eb):
        for dh in range(eh):
            for dw in range(ew):
                seg = xp[:, db : db + b, dh : dh + h, dw : dw + wd]
                gw[:, :, db, dh, dw] = np.tensordot(g, seg, axes=((1, 2, 3), (1, 2, 3)))
    return gw


def tap_loop_set(scheme: KernelScheme, weights, x: np.ndarray) -> np.ndarray:
    """The convolution set on the tap loop: parallel schemes concatenate their
    branches, sequential ones chain their stages."""
    extents = branch_extents(scheme)
    if not scheme.chained:
        return np.concatenate([tap_loop_conv(x, w, e) for w, e in zip(weights, extents)])
    for w, e in zip(weights, extents):
        x = tap_loop_conv(x, w, e)
    return x


def tap_placement_matrix(ks: KernelSet) -> np.ndarray:
    """The joint kernel matrix of an unchained scheme, written tap by tap: each
    branch tap's (out, C) weights go to the columns of its offset inside the
    k x k x k window, a one-tap axis sitting at the window's centre."""
    scheme, c, k = ks.scheme, ks.in_channels, ks.scheme.k
    mid = k // 2
    mat = np.zeros((sum(w.shape[0] for w in ks.weights), c * k**3))
    row0 = 0
    for w, extents in zip(ks.weights, branch_extents(scheme)):
        flat = w.reshape(w.shape[0], c, -1)  # (out, C, taps)
        axes = [range(e) if e > 1 else (mid,) for e in extents]
        offsets = [(db, dh, dw) for db in axes[0] for dh in axes[1] for dw in axes[2]]
        for t, (db, dh, dw) in enumerate(offsets):
            col = ((np.arange(c) * k + db) * k + dh) * k + dw
            mat[row0 : row0 + w.shape[0], col] = flat[:, :, t]
        row0 += w.shape[0]
    return mat
