"""Minimal reverse-mode differentiation over the ops this library needs.

Each op builds a node holding its value and a closure that routes the
upstream gradient to its parents; ``backward`` walks the recorded graph in
reverse topological order. The op set is deliberately small: axis-branch
convolutions, 1x1x1 channel maps, the leaky rectifier, additions, the mean
absolute error, and the singular-value diversity penalty.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .regularizer import nuclear_penalty
from .tensor import gather_patches, scatter_patches


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


def branch_conv(w: Node, x: Node, extents: tuple[int, int, int]) -> Node:
    """Same-padded convolution of one branch, done as unfold + matmul."""
    c, b, h, wd = x.data.shape
    out_ch = w.data.shape[0]
    cols = gather_patches(x.data, extents)
    wf = w.data.reshape(out_ch, -1)
    out = Node((wf @ cols).reshape(out_ch, b, h, wd), parents=(w, x))

    def _backward(g):
        gf = g.reshape(out_ch, -1)
        w._accumulate((gf @ cols.T).reshape(w.data.shape))
        x._accumulate(scatter_patches(wf.T @ gf, extents, x.data.shape))

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
