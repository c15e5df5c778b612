"""Minimal reverse-mode differentiation over the ops this library needs.

Each op builds a node holding its value and a closure that routes the
upstream gradient to its parents; ``backward`` walks the recorded graph in
reverse topological order. The op set is deliberately small: axis-branch
convolutions, 1x1x1 channel maps, the leaky rectifier, additions, the mean
absolute error, and the singular-value diversity penalty.

Branch convolutions run as kn2row (Vasudevan, Anderson and Gregg 2017): one
(out, in) matrix product per kernel tap on a shifted view of the padded
input, so no patch matrix is built or held on the tape. The im2col unfold in
``tensor.unfold_patches`` is kept for the rank audit and as an independent
check of this kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .regularizer import nuclear_penalty


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
    taps = np.moveaxis(w.data.reshape(out_ch, c, len(shifts)), 2, 0).copy()
    grid = np.empty((out_ch, b * hp * wp))
    acc = grid[:, :n]
    np.matmul(taps[0], xp[:, :n], out=acc)  # shifts[0] == 0
    for t in range(1, len(shifts)):
        acc += taps[t] @ xp[:, shifts[t] : shifts[t] + n]
    out = Node(grid.reshape(out_ch, b, hp, wp)[:, :, :h, :wd], parents=(w, x))

    def _backward(g):
        gp = np.zeros((out_ch, b, hp, wp))
        gp[:, :, :h, :wd] = g
        gp = gp.reshape(out_ch, -1)[:, :n]
        gw = np.empty((len(shifts), out_ch, c))
        gxp = np.zeros((c, bp * hp * wp))
        for t, s in enumerate(shifts):
            np.matmul(gp, xp[:, s : s + n].T, out=gw[t])
            gxp[:, s : s + n] += taps[t].T @ gp
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
