"""Direct convolution oracles for the library's kn2row branch convolution.

They slice the padded 4-D volume once per kernel tap, so they need none of
the kernel's flattened column offsets, wrap-around cropping or transposed
backward loop; the weight gradient is written out the same way."""

import numpy as np

from resset.schemes import KernelScheme, branch_extents


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
    """The convolution set on the tap loop: joint schemes concatenate their
    branches, sequential ones chain their stages."""
    extents = branch_extents(scheme)
    if scheme.jointly_representable:
        return np.concatenate([tap_loop_conv(x, w, e) for w, e in zip(weights, extents)])
    for w, e in zip(weights, extents):
        x = tap_loop_conv(x, w, e)
    return x
