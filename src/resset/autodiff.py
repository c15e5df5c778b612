"""Minimal reverse-mode differentiation over the ops this library needs.

Each op builds a node holding its value and a closure that routes the
upstream gradient to its parents; ``backward`` walks the recorded graph in
reverse topological order. The op set is deliberately small: axis-branch
convolutions, 1x1x1 channel maps, the leaky rectifier, additions, the mean
absolute error, and the singular-value diversity penalty.

Branch convolutions run as kn2row (Vasudevan, Anderson and Gregg 2017): one
(out, in) matrix product per kernel tap on a shifted view of the padded
input, so no patch matrix is built or held on the tape. The tap loop runs
inside column blocks of the flattened grid, sized so that one block's
operands stay in a core's L2 cache across all taps (``BLOCK_COLUMNS``). The
im2col unfold in ``tensor.unfold_patches`` is kept for the rank audit and as
an independent check of this kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .regularizer import nuclear_penalty

# Columns of the flattened padded grid per block of the branch convolution's
# tap loop. One block's working set is about 8 B * block * (2*out + 2*in)
# plus the taps' overhang: ~1 MB at width 8 and 4096 columns, inside a 2 MB
# per-core L2; at 16384 columns it no longer fits. Forward plus backward on
# the 8x31x32x32 toy cube at width 8 (2-core Xeon, OpenBLAS, medians of
# 11-21 calls): the 3x3x3 branch takes 41 ms unblocked, 41-50 at 1024-2048
# columns, 23-24 at 3072-6144, 26 at 8192 and 38 at 16384; the 3x1x1 branch
# 4.8 unblocked and 3.4-3.8 at 3072-8192. One BLAS thread gives the same
# shape (3x3x3: 49 unblocked, 42 at 2048, 25 at 4096), so the slow small
# blocks are not a threading cost; their cause was not isolated.
BLOCK_COLUMNS = 4096


class Node:
    """A value in the computation graph with its gradient accumulator."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)  # a copy: callers share g
        else:
            self.grad += g

    def backward(self, seed=None):
        """Push gradients from this node to every ancestor."""
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        if seed is None:
            seed = np.ones_like(self.data)
        self._accumulate(np.asarray(seed, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def branch_conv(w: Node, x: Node, extents: tuple[int, int, int]) -> Node:
    """Same-padded convolution of one branch, done as kn2row: one (out, in)
    matrix product per kernel tap, accumulated over shifted views.

    The padded input is flattened to ``(C, Bp*Hp*Wp)``. Output position
    ``(b, h, w)`` sits at column ``b*Hp*Wp + h*Wp + w`` and tap
    ``(db, dh, dw)`` reads ``s = db*Hp*Wp + dh*Wp + dw`` columns further on,
    so each tap is a view of the same columns shifted by ``s``. The result is
    computed on the padded ``(B, Hp, Wp)`` grid and cropped to ``(B, H, W)``:
    the positions cropped away sum windows that wrap across a row or plane
    edge, or are never written, and nothing reads them. The backward pass is
    the same loop transposed, on the gradient embedded in a zero padded grid,
    so those positions contribute nothing to either gradient.

    Both passes walk the ``n`` output columns in blocks of
    ``BLOCK_COLUMNS`` and run every tap inside a block, so the block's
    accumulator, its scratch product and the input columns its taps read
    stay in cache across the taps instead of streaming through memory once
    per tap (Goto and van de Geijn 2008). Every product is written through
    ``out=`` into a scratch preallocated once per call.
    """
    c, b, h, wd = x.data.shape
    kb, kh, kw = extents
    pb, ph, pw = (kb - 1) // 2, (kh - 1) // 2, (kw - 1) // 2
    out_ch = w.data.shape[0]
    padded = np.pad(x.data, ((0, 0), (pb, pb), (ph, ph), (pw, pw)))
    _, bp, hp, wp = padded.shape
    xp = padded.reshape(c, -1)
    n = (b - 1) * hp * wp + (h - 1) * wp + wd
    shifts = [
        db * hp * wp + dh * wp + dw for db in range(kb) for dh in range(kh) for dw in range(kw)
    ]
    cols = min(BLOCK_COLUMNS, n)
    blocks = [(lo, min(lo + cols, n)) for lo in range(0, n, cols)]
    taps = np.moveaxis(w.data.reshape(out_ch, c, len(shifts)), 2, 0).copy()
    grid = np.empty((out_ch, b * hp * wp))
    prod = np.empty((out_ch, cols))
    for lo, hi in blocks:
        acc, tmp = grid[:, lo:hi], prod[:, : hi - lo]
        np.matmul(taps[0], xp[:, lo:hi], out=acc)  # shifts[0] == 0
        for t in range(1, len(shifts)):
            s = shifts[t]
            acc += np.matmul(taps[t], xp[:, lo + s : hi + s], out=tmp)
    out = Node(grid.reshape(out_ch, b, hp, wp)[:, :, :h, :wd], parents=(w, x))

    def _backward(g):
        gp = np.zeros((out_ch, b, hp, wp))
        gp[:, :, :h, :wd] = g
        gp = gp.reshape(out_ch, -1)
        gw = np.zeros((len(shifts), out_ch, c))
        gxp = np.zeros((c, bp * hp * wp))
        prod = np.empty((c, cols))
        for lo, hi in blocks:
            g_blk, tmp = gp[:, lo:hi], prod[:, : hi - lo]
            for t, s in enumerate(shifts):
                gw[t] += g_blk @ xp[:, lo + s : hi + s].T
                gxp[:, lo + s : hi + s] += np.matmul(taps[t].T, g_blk, out=tmp)
        w._accumulate(np.moveaxis(gw, 0, 2).reshape(w.data.shape))
        x._accumulate(gxp.reshape(c, bp, hp, wp)[:, pb : pb + b, ph : ph + h, pw : pw + wd])

    out._backward = _backward
    return out


def channel_mix(w: Node, x: Node) -> Node:
    """1x1x1 map: mix channels with a (out, in) matrix at every position."""
    x2 = x.data.reshape(x.data.shape[0], -1)
    out = Node((w.data @ x2).reshape(w.data.shape[0], *x.data.shape[1:]), parents=(w, x))

    def _backward(g):
        g2 = g.reshape(g.shape[0], -1)
        w._accumulate(g2 @ x2.T)
        x._accumulate((w.data.T @ g2).reshape(x.data.shape))

    out._backward = _backward
    return out


def concat_channels(parts: list[Node]) -> Node:
    out = Node(np.concatenate([p.data for p in parts], axis=0), parents=tuple(parts))

    def _backward(g):
        start = 0
        for p in parts:
            n = p.data.shape[0]
            p._accumulate(g[start : start + n])
            start += n

    out._backward = _backward
    return out


def leaky_relu(x: Node, slope: float) -> Node:
    out = Node(np.where(x.data >= 0, x.data, slope * x.data), parents=(x,))

    def _backward(g):
        x._accumulate(np.where(x.data >= 0, g, slope * g))

    out._backward = _backward
    return out


def add(a: Node, b: Node) -> Node:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"cannot add shapes {a.data.shape} and {b.data.shape}")
    out = Node(a.data + b.data, parents=(a, b))

    def _backward(g):
        a._accumulate(g)
        b._accumulate(g)

    out._backward = _backward
    return out


def scale(x: Node, factor: float) -> Node:
    out = Node(x.data * factor, parents=(x,))

    def _backward(g):
        x._accumulate(g * factor)

    out._backward = _backward
    return out


def mean_abs_error(pred: Node, target: np.ndarray) -> Node:
    """Mean absolute error; its subgradient at exact ties is zero."""
    if pred.data.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.data.shape} != target {target.shape}")
    diff = pred.data - target
    out = Node(np.mean(np.abs(diff)), parents=(pred,))

    def _backward(g):
        pred._accumulate(g * np.sign(diff) / diff.size)

    out._backward = _backward
    return out


def diversity_penalty(x: Node) -> Node:
    """Negative nuclear norm of the channels x (B*H*W) unfolding of ``x``."""
    value, grad_mat, _ = nuclear_penalty(x.data.reshape(x.data.shape[0], -1))
    out = Node(value, parents=(x,))

    def _backward(g):
        x._accumulate(float(g) * grad_mat.reshape(x.data.shape))

    out._backward = _backward
    return out
