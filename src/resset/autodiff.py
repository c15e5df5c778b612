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
im2col unfold in ``tensor.unfold_patches`` is kept only as an independent
check of this kernel, in acceptance criterion 1 and the oracle tests.

Memory comes from a ``Workspace``, a shape-keyed pool of float64 arrays (the
caching-allocator pattern of Paszke et al. 2019, "PyTorch", scoped to one
run). Every node carries the workspace of the op input it was made from; a
node made without one gets a private workspace. Each op takes its output,
the arrays its backward keeps, its scratch and every gradient buffer from
that workspace and writes through ``out=``. Lifetime contract:

- An op gives its scratch back before it returns.
- ``Node.backward`` gives an interior node's gradient and the arrays the node
  owns (its value included) back right after the node's own backward has
  run, when no other node can still read them. The root and the leaves keep
  their values and gradients; an interior node's value is readable after
  ``backward`` only until its workspace hands that array out again.
- ``Workspace.reclaim`` takes back everything still lent out. Only
  ``train.train_denoiser`` shares one workspace across forward passes: it
  drops each step's tape and loss, reclaims, and runs the next forward on
  the same arrays, so a steady-state epoch allocates nothing new.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .regularizer import nuclear_penalty
from .workspace import Workspace

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
    """A value in the computation graph with its gradient accumulator.

    ``ws`` is the workspace that the node's gradient and the arrays of the
    op that made it come from; ``_owned`` lists the workspace arrays the
    node's value and backward closure hold. After the
    node's backward has run, ``backward`` gives both back unless the node is
    the root (see the module docstring). A graph is walked backward once.
    """

    __slots__ = ("data", "grad", "ws", "_parents", "_backward", "_owned", "__weakref__")

    def __init__(self, data, parents=(), ws: Workspace | None = None, owned=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.ws = Workspace() if ws is None else ws
        self._parents = tuple(parents)
        self._backward = None
        self._owned = owned

    def _accumulate(self, g):
        """Add a gradient contribution that the caller keeps."""
        if self.grad is None:
            self.grad = self.ws.take(self.data.shape)
            np.copyto(self.grad, g)  # a copy: callers share g
        else:
            self.grad += g

    def _adopt(self, g):
        """Add a gradient contribution taken from this node's workspace for
        this node alone; the first one becomes the gradient without a copy."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g
            self.ws.give(g)

    def backward(self, seed=None):
        """Push gradients from this node to every ancestor. ``seed`` (ones by
        default) must have this node's shape."""
        seed = np.ones_like(self.data) if seed is None else np.asarray(seed, dtype=np.float64)
        if seed.shape != self.data.shape:
            raise ShapeError(f"seed shape {seed.shape} != value shape {self.data.shape}")
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
        self._accumulate(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:  # every reader of its value and gradient has run
                    node.ws.give(node.grad, *node._owned)
                    node.grad, node._owned = None, ()


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
    ``out=`` into workspace arrays. The node owns the padded input, the
    reordered taps and the output grid until its backward has run.
    """
    ws = x.ws
    c, b, h, wd = x.data.shape
    kb, kh, kw = extents
    pb, ph, pw = (kb - 1) // 2, (kh - 1) // 2, (kw - 1) // 2
    out_ch = w.data.shape[0]
    bp, hp, wp = b + 2 * pb, h + 2 * ph, wd + 2 * pw
    xp = ws.take((c, bp * hp * wp))
    padded = xp.reshape(c, bp, hp, wp)
    padded.fill(0.0)
    padded[:, pb : pb + b, ph : ph + h, pw : pw + wd] = x.data
    n = (b - 1) * hp * wp + (h - 1) * wp + wd
    shifts = [
        db * hp * wp + dh * wp + dw for db in range(kb) for dh in range(kh) for dw in range(kw)
    ]
    cols = min(BLOCK_COLUMNS, n)
    blocks = [(lo, min(lo + cols, n)) for lo in range(0, n, cols)]
    taps = ws.take((len(shifts), out_ch, c))
    taps[...] = np.moveaxis(w.data.reshape(out_ch, c, len(shifts)), 2, 0)
    grid = ws.take((out_ch, b * hp * wp))
    prod = ws.take((out_ch, cols))
    for lo, hi in blocks:
        acc, tmp = grid[:, lo:hi], prod[:, : hi - lo]
        np.matmul(taps[0], xp[:, lo:hi], out=acc)  # shifts[0] == 0
        for t in range(1, len(shifts)):
            s = shifts[t]
            acc += np.matmul(taps[t], xp[:, lo + s : hi + s], out=tmp)
    ws.give(prod)
    out = Node(
        grid.reshape(out_ch, b, hp, wp)[:, :, :h, :wd],
        parents=(w, x),
        ws=ws,
        owned=(xp, taps, grid),
    )

    def _backward(g):
        gp = ws.take((out_ch, b * hp * wp))
        gp.fill(0.0)  # a reused buffer holds stale values where g does not reach
        gp.reshape(out_ch, b, hp, wp)[:, :, :h, :wd] = g
        gw = ws.take((len(shifts), out_ch, c))
        gw.fill(0.0)
        gxp = ws.take((c, bp * hp * wp))
        gxp.fill(0.0)
        prod = ws.take((c, cols))
        for lo, hi in blocks:
            g_blk, tmp = gp[:, lo:hi], prod[:, : hi - lo]
            for t, s in enumerate(shifts):
                gw[t] += g_blk @ xp[:, lo + s : hi + s].T
                gxp[:, lo + s : hi + s] += np.matmul(taps[t].T, g_blk, out=tmp)
        w._accumulate(np.moveaxis(gw, 0, 2).reshape(w.data.shape))
        x._accumulate(gxp.reshape(c, bp, hp, wp)[:, pb : pb + b, ph : ph + h, pw : pw + wd])
        ws.give(gp, gw, gxp, prod)

    out._backward = _backward
    return out


def _mix_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out = a @ b``. With an inner dimension of 1 that is an outer product,
    which numpy's matmul runs several times slower than a broadcast multiply
    that gives the same bits (one rounded product per entry, no sum)."""
    if a.shape[1] == 1:
        np.multiply(a, b, out=out)
    else:
        np.matmul(a, b, out=out)


def channel_mix(w: Node, x: Node) -> Node:
    """1x1x1 map: mix channels with a (out, in) matrix at every position."""
    ws = x.ws
    c, out_ch = x.data.shape[0], w.data.shape[0]
    x2 = x.data.reshape(c, -1)
    y = ws.take((out_ch, *x.data.shape[1:]))
    _mix_into(w.data, x2, y.reshape(out_ch, -1))
    out = Node(y, parents=(w, x), ws=ws, owned=(y,))

    def _backward(g):
        g2 = g.reshape(out_ch, -1)
        w._accumulate(g2 @ x2.T)
        gx = ws.take(x.data.shape)
        _mix_into(w.data.T, g2, gx.reshape(c, -1))
        x._adopt(gx)

    out._backward = _backward
    return out


def concat_channels(parts: list[Node]) -> Node:
    ws = parts[0].ws
    channels = sum(p.data.shape[0] for p in parts)
    y = ws.take((channels, *parts[0].data.shape[1:]))
    np.concatenate([p.data for p in parts], axis=0, out=y)
    out = Node(y, parents=tuple(parts), ws=ws, owned=(y,))

    def _backward(g):
        start = 0
        for p in parts:
            n = p.data.shape[0]
            p._accumulate(g[start : start + n])
            start += n

    out._backward = _backward
    return out


def leaky_relu(x: Node, slope: float) -> Node:
    """``max(x, slope*x)``, which is ``x`` where ``x >= 0`` and ``slope*x``
    elsewhere, bit for bit, for ``0 <= slope <= 1``."""
    if not 0.0 <= slope <= 1.0:
        raise ConfigError(f"leaky_relu slope must lie in [0, 1], got {slope}")
    ws = x.ws
    y = ws.take(x.data.shape)
    np.multiply(x.data, slope, out=y)
    np.maximum(x.data, y, out=y)
    out = Node(y, parents=(x,), ws=ws, owned=(y,))

    def _backward(g):
        gx = ws.take(g.shape)
        np.greater_equal(x.data, 0.0, out=gx)  # 1 where x >= 0, else 0 (NaN too)
        np.maximum(gx, slope, out=gx)  # 1 where x >= 0, else slope
        np.multiply(gx, g, out=gx)  # g or slope*g, bit for bit
        x._adopt(gx)

    out._backward = _backward
    return out


def add(a: Node, b: Node) -> Node:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"cannot add shapes {a.data.shape} and {b.data.shape}")
    ws = a.ws
    y = ws.take(a.data.shape)
    np.add(a.data, b.data, out=y)
    out = Node(y, parents=(a, b), ws=ws, owned=(y,))

    def _backward(g):
        a._accumulate(g)
        b._accumulate(g)

    out._backward = _backward
    return out


def scale(x: Node, factor: float) -> Node:
    ws = x.ws
    y = ws.take(x.data.shape)
    np.multiply(x.data, factor, out=y)
    out = Node(y, parents=(x,), ws=ws, owned=(y,))

    def _backward(g):
        gx = ws.take(g.shape)
        np.multiply(g, factor, out=gx)
        x._adopt(gx)

    out._backward = _backward
    return out


def mean_abs_error(pred: Node, target: np.ndarray) -> Node:
    """Mean absolute error; its subgradient at exact ties is zero."""
    if pred.data.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.data.shape} != target {target.shape}")
    ws = pred.ws
    diff = ws.take(target.shape)
    np.subtract(pred.data, target, out=diff)
    magnitude = ws.take(target.shape)
    np.abs(diff, out=magnitude)
    y = ws.take(())
    y[...] = np.mean(magnitude)
    ws.give(magnitude)
    out = Node(y, parents=(pred,), ws=ws, owned=(diff, y))

    def _backward(g):
        gx = ws.take(diff.shape)
        np.sign(diff, out=gx)
        np.multiply(g, gx, out=gx)
        np.divide(gx, diff.size, out=gx)
        pred._adopt(gx)

    out._backward = _backward
    return out


def diversity_penalty(x: Node) -> Node:
    """Negative nuclear norm of the channels x (B*H*W) unfolding of ``x``.

    The gradient stays factored as ``-(left @ right)`` (see
    ``regularizer.nuclear_penalty``). The node keeps only the factors: on the
    Gram path a rows x rows matrix and the unfolding of ``x``, which is on
    the tape already. Its backward forms ``(-g * left) @ right`` in one
    matrix product, written straight into the input's gradient array. A
    non-contiguous ``x`` (a convolution's cropped output) is unfolded into a
    workspace array that the node owns, not into a fresh copy.
    """
    ws = x.ws
    rows = x.data.shape[0]
    if x.data.flags.c_contiguous:
        mat, owned = x.data.reshape(rows, -1), ()
    else:
        mat = ws.take((rows, x.data.size // rows))
        np.copyto(mat.reshape(x.data.shape), x.data)
        owned = (mat,)
    value, (left, right), _ = nuclear_penalty(mat)
    y = ws.take(())
    y[...] = value
    out = Node(y, parents=(x,), ws=ws, owned=(y, *owned))

    def _backward(g):
        gx = ws.take(x.data.shape)
        np.matmul(np.multiply(left, -float(g)), right, out=gx.reshape(rows, -1))
        x._adopt(gx)

    out._backward = _backward
    return out
