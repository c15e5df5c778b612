"""Minimal reverse-mode differentiation over the ops this library needs.

Each op builds a node holding its value and a closure that routes the
upstream gradient to its parents; ``backward`` walks the recorded graph in
reverse topological order. The op set is deliberately small: axis-branch
convolutions, 1x1x1 channel maps, the leaky rectifier, additions, the mean
absolute error, and the singular-value diversity penalty.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
            self.grad = np.zeros_like(self.data)
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


def _gather(x: np.ndarray, extents: tuple[int, int, int]) -> np.ndarray:
    """im2col over the branch's own window: (C*taps, B*H*W) patch matrix."""
    c, b, h, w = x.shape
    eb, eh, ew = extents
    pads = ((0, 0), ((eb - 1) // 2,) * 2, ((eh - 1) // 2,) * 2, ((ew - 1) // 2,) * 2)
    padded = np.pad(x, pads)
    windows = sliding_window_view(padded, (eb, eh, ew), axis=(1, 2, 3))
    return windows.transpose(0, 4, 5, 6, 1, 2, 3).reshape(c * eb * eh * ew, b * h * w)


def _scatter(cols_grad: np.ndarray, extents: tuple[int, int, int], shape) -> np.ndarray:
    """Adjoint of :func:`_gather`: scatter-add patch gradients back."""
    c, b, h, w = shape
    eb, eh, ew = extents
    pb, ph, pw = (eb - 1) // 2, (eh - 1) // 2, (ew - 1) // 2
    g = cols_grad.reshape(c, eb, eh, ew, b, h, w)
    padded = np.zeros((c, b + 2 * pb, h + 2 * ph, w + 2 * pw))
    for db in range(eb):
        for dh in range(eh):
            for dw in range(ew):
                padded[:, db : db + b, dh : dh + h, dw : dw + w] += g[:, db, dh, dw]
    return padded[:, pb : pb + b, ph : ph + h, pw : pw + w]


def branch_conv(w: Node, x: Node, extents: tuple[int, int, int]) -> Node:
    """Same-padded convolution of one branch, done as unfold + matmul."""
    c, b, h, wd = x.data.shape
    out_ch = w.data.shape[0]
    cols = _gather(x.data, extents)
    wf = w.data.reshape(out_ch, -1)
    out = Node((wf @ cols).reshape(out_ch, b, h, wd), parents=(w, x))

    def _backward(g):
        gf = g.reshape(out_ch, -1)
        w._accumulate((gf @ cols.T).reshape(w.data.shape))
        x._accumulate(_scatter(wf.T @ gf, extents, x.data.shape))

    out._backward = _backward
    return out


def channel_mix(w: Node, x: Node) -> Node:
    """1x1x1 map: mix channels with a (out, in) matrix at every position."""
    out = Node(np.tensordot(w.data, x.data, axes=(1, 0)), parents=(w, x))

    def _backward(g):
        w._accumulate(np.tensordot(g, x.data, axes=((1, 2, 3), (1, 2, 3))))
        x._accumulate(np.tensordot(w.data.T, g, axes=(1, 0)))

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
