"""Minimal reverse-mode differentiation over the ops this library needs.

Each op builds a node holding its value and a closure that routes the
upstream gradient to its parents; ``backward`` walks the recorded graph in
reverse topological order. The op set is deliberately small: axis-branch
convolutions, 1x1x1 channel maps, the leaky rectifier, additions, the mean
absolute error, and the singular-value diversity penalty.

Branch convolutions run as kn2row (Vasudevan, Anderson and Gregg 2017) with
the width taps stacked as in MEC (Cho and Brand 2017): per column block of
the flattened padded input, one window holds the block ``kw`` times, each
copy shifted one column further, and each (band, height) tap row is one
(out, kw*in) matrix product on a shifted view of that window. No patch
matrix is built or held on the tape; the window is block-sized scratch, and
for ``kw == 1`` a view of the input. The input gradient is the same gather
on the padded output gradient with the taps flipped and transposed. The tap
loops run inside column blocks sized so that one block's operands stay in a
core's L2 cache across all taps (``BLOCK_COLUMNS``). An im2col unfold
checks this kernel independently, in acceptance criterion 1 and the oracle
tests; it lives beside the direct tap loop in ``tests/conv_oracles.py``.

Memory comes from a ``Workspace``, which records the arrays a step takes
and gives back and lends the next steps views of one arena planned from that
record. Every node carries the workspace of the op input it was made from; a
node made without one gets a private float64 workspace. Each op takes its
output, the arrays its backward keeps, its scratch and every gradient buffer
from that workspace and writes through ``out=``.

The workspace's dtype is the tape's precision: a node's value and gradient
are in it, and ``Node(data, ws=...)`` casts to it. Training runs its tapes on
a float32 workspace (``train.TRAIN_DTYPE``); everything else, grad-check and
the oracle tests included, runs on float64 ones. The one op that does not
compute in the tape's dtype is ``diversity_penalty``: it forms the feature
matrix's Gram matrix in float64, casting one column block at a time into
block-sized float64 scratch, and decomposes it in float64, so the penalty's
spectral arithmetic is float64 whatever the tape's precision and no float64
copy of the feature is made.

A leaf made with ``requires_grad=False`` (the network input) takes no
gradient: contributions to it are dropped, and ``channel_mix`` skips its
input-gradient product when its input asks for none.

Lifetime contract (PyTorch's, Paszke et al. 2019): a lent array goes back to
the workspace when its last reference dies, so what the tape references is
what it keeps.

- A ``Node`` is a handle: its value and its ``Slot``, the graph vertex that
  holds the gradient, the parents' slots and the backward closure. Graph
  edges and closures hold slots and the arrays the backward reads, never a
  parent's value, so a value that no backward reads dies when the caller
  drops its handle. Of the ops, only ``branch_conv``, ``channel_mix`` and
  ``diversity_penalty`` read their input's value in their backward
  (``branch_conv`` pads it again into scratch for its weight gradient;
  ``mean_abs_error`` reads a copy of its own, ``leaky_relu`` a one-byte
  mask of its input's signs; ``add``, ``scale`` and ``concat_channels`` read
  none).
- An op's scratch goes back before the op returns: with its locals, or
  earlier through a ``del`` where a later take could use its bytes.
- Gradients are lent, not copied, where an op passes its upstream gradient
  on unchanged (as PyTorch's autograd passes a buffer on): ``add`` lends its
  gradient to both parents and ``concat_channels`` lends each part its row
  block. An interior parent's first gradient is then a read-only view of the
  lender's buffer, which keeps that buffer alive; a lent view is lent on as
  a view of the same buffer, and a read-only gradient is a borrowed one. The
  first further contribution to a borrowed gradient sums the two into a
  buffer of the node's own in one pass. Leaves and the root never borrow:
  their gradients are arrays of their own.
- ``Node.backward`` drops an interior slot's closure and gradient right
  after the slot's backward has run: the arrays the closure read and the
  gradient buffer, once no borrower views it, go back then. The root and
  the leaves keep their values and gradients. No closure references its own
  node, so a tape holds no reference cycle and every array goes back at a
  point fixed by the code.
- ``Workspace.reclaim`` takes back everything still lent out. Only
  ``train.train_denoiser`` shares one workspace across forward passes: it
  drops each step's tape and loss, reclaims, and runs the next forward on
  the planned arena, so a steady-state epoch allocates nothing new.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .regularizer import nuclear_penalty
from .tensor import matmul_nt
from .workspace import Workspace

# Columns of the flattened padded grid per block of the branch convolution's
# tap loops. One block's working set is its stacked window, (kw*in) x
# (block + span) with span = (kb-1)*Hp*Wp + (kh-1)*Wp, plus the (out, block)
# accumulator and product: at width 8 and 4096 columns about 1.9 MB in
# float64 and 0.95 MB in float32 for the 3x3x3 branch on the 31x32x32 toy
# cube (span 2380), inside a 2 MB per-core L2. Forward plus backward per call
# on that cube at width 8 (2-core Xeon, OpenBLAS, medians of 15-25 calls,
# four alternating runs), float64: the 3x3x3 branch took 22.7-24.4 ms at 2048
# columns, 16.8-21.7 at 3072, 15.9-20.8 at 4096, 18.2-21.2 at 6144 and
# 19.4-23.4 at 8192; the 3x1x1 branch 4.3-4.8, 3.1-3.6, 2.7-4.2, 2.7-3.3 and
# 3.1-3.7. Re-swept on the float32 training tape (medians of 28 calls, three
# alternating runs) at 2048/3072/4096/6144/8192/12288/16384 columns: the
# 3x3x3 branch 11.0-12.9, 8.7-10.5, 7.4-9.7, 11.9-12.9, 11.5-12.0,
# 11.4-12.7 and 16.6-20.3 ms; the 3x1x1 branch 2.3-2.5, 1.9-2.1, 1.7-1.8,
# 1.5-1.8, 1.4-1.7, 1.4-1.6 and 1.9-2.3 ms. Wider blocks save the 3x1x1
# branch about 0.2 ms a call and cost the 3x3x3 branch 2-4 ms; 4096 stays.
# ``channel_mix``'s weight gradient and the penalty's Gram matrix sum their
# long-K products over blocks of the same width (``tensor.matmul_nt``).
BLOCK_COLUMNS = 4096


class Slot:
    """A node's vertex in the graph: its gradient, its parents' slots and its
    backward closure. ``grad`` is None until a contribution arrives, then
    either a buffer of the slot's own or, when it is read-only, a view of a
    lender's buffer. A slot with ``requires_grad`` false takes no
    contribution."""

    __slots__ = ("grad", "ws", "shape", "requires_grad", "parents", "backward")

    def __init__(self, ws: Workspace, shape: tuple, requires_grad: bool, parents: tuple):
        self.ws, self.shape, self.requires_grad, self.parents = ws, shape, requires_grad, parents
        self.grad = self.backward = None

    def accumulate(self, g):
        """Add a gradient contribution that the caller keeps. The first one is
        copied; one added to a borrowed gradient is summed with it into a
        buffer of this slot's own in one pass."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = self.ws.take(self.shape)
            np.copyto(self.grad, g)  # a copy: callers share g
        elif not self.grad.flags.writeable:
            buffer = self.ws.take(self.shape)
            np.add(self.grad, g, out=buffer)
            self.grad = buffer
        else:
            self.grad += g

    def adopt(self, g):
        """Add a gradient contribution taken from this slot's workspace for
        this slot alone; the first one becomes the gradient without a copy,
        and so does one added to a borrowed gradient."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g
        elif not self.grad.flags.writeable:
            np.add(self.grad, g, out=g)
            self.grad = g
        else:
            self.grad += g

    def borrow(self, g):
        """Add a gradient contribution ``g`` that is a view of a lender's
        gradient. An interior slot's first one becomes a read-only view of
        it; leaves and later contributions go through ``accumulate``."""
        if self.backward is None or self.grad is not None:
            self.accumulate(g)
            return
        self.grad = g.view()
        self.grad.flags.writeable = False


class Node:
    """A value of the graph and its ``Slot``.

    ``ws`` is the workspace that the node's gradient and the arrays of the
    op that made it come from; ``data`` and ``grad`` are in its dtype. A
    node with ``requires_grad`` false takes no gradient and keeps ``grad``
    at None. The value lives as long as this handle or a backward that
    reads it (see the module docstring). A graph is walked backward once.
    """

    __slots__ = ("data", "slot", "__weakref__")

    def __init__(self, data, parents=(), ws: Workspace | None = None, requires_grad=True):
        ws = Workspace() if ws is None else ws
        self.data = np.asarray(data, dtype=ws.dtype)
        self.slot = Slot(ws, self.data.shape, requires_grad, tuple(p.slot for p in parents))

    @property
    def ws(self) -> Workspace:
        return self.slot.ws

    @property
    def grad(self):
        return self.slot.grad

    @property
    def _backward(self):
        return self.slot.backward

    @_backward.setter
    def _backward(self, closure):
        self.slot.backward = closure

    def backward(self, seed=None):
        """Push gradients from this node to every ancestor. ``seed`` (ones by
        default) must have this node's shape."""
        seed = np.ones_like(self.data) if seed is None else np.asarray(seed, dtype=self.data.dtype)
        if seed.shape != self.data.shape:
            raise ShapeError(f"seed shape {seed.shape} != value shape {self.data.shape}")
        root = self.slot
        topo = []
        visited = set()
        stack = [(root, False)]
        while stack:
            slot, expanded = stack.pop()
            if expanded:
                topo.append(slot)
                continue
            if id(slot) in visited:
                continue
            visited.add(id(slot))
            stack.append((slot, True))
            for parent in slot.parents:
                stack.append((parent, False))
        root.accumulate(seed)
        for slot in reversed(topo):
            if slot.backward is not None and slot.grad is not None:
                slot.backward(slot.grad)
                if slot is not root:  # every reader of its gradient has run
                    slot.backward = slot.grad = None


def _tap_rows(taps, src, rows, blocks, out, ws):
    """``out[:, lo:hi] = sum_r taps[r] @ window[:, rows[r] : rows[r] + hi - lo]``
    for each column block ``(lo, hi)``. The block's window stacks
    ``kw = taps.shape[2] // in`` row blocks; row block ``j`` is ``src`` from
    column ``lo + j`` on, ``hi - lo + rows[-1]`` columns wide. With ``kw == 1``
    the window is a view of ``src``; otherwise it is copied into block-sized
    scratch from ``ws``, as is each product."""
    cin, cols = src.shape[0], blocks[0][1] - blocks[0][0]
    kw = taps.shape[2] // cin
    prod = ws.take((out.shape[0], cols))
    stack = ws.take((kw * cin, cols + rows[-1])) if kw > 1 else None
    for lo, hi in blocks:
        width = hi - lo + rows[-1]
        if stack is None:
            window = src[:, lo : lo + width]
        else:
            window = stack[:, :width]
            for j in range(kw):
                window[j * cin : (j + 1) * cin] = src[:, lo + j : lo + j + width]
        acc, tmp = out[:, lo:hi], prod[:, : hi - lo]
        np.matmul(taps[0], window[:, : hi - lo], out=acc)  # rows[0] == 0
        for r in range(1, len(rows)):
            acc += np.matmul(taps[r], window[:, rows[r] : rows[r] + hi - lo], out=tmp)


def _pad_into(grid, interior, pads):
    """Write ``interior`` (C, B, H, W) into the middle of ``grid`` and zero
    the border of ``pads`` cells on each side of the three grid axes, so
    each cell is written once."""
    _, b, h, w = interior.shape
    pb, ph, pw = pads
    grid[:, :pb] = 0.0
    grid[:, pb + b :] = 0.0
    planes = grid[:, pb : pb + b]
    planes[:, :, :ph] = 0.0
    planes[:, :, ph + h :] = 0.0
    rows = planes[:, :, ph : ph + h]
    rows[..., :pw] = 0.0
    rows[..., pw + w :] = 0.0
    rows[..., pw : pw + w] = interior


def branch_conv(w: Node, x: Node, extents: tuple[int, int, int]) -> Node:
    """Same-padded convolution of one branch, done as kn2row with the width
    taps stacked: one (out, kw*in) matrix product per (band, height) tap row,
    accumulated over shifted windows.

    The padded input is flattened to ``(C, Bp*Hp*Wp)``. Output position
    ``(b, h, w)`` sits at column ``b*Hp*Wp + h*Wp + w`` and tap
    ``(db, dh, dw)`` reads ``db*Hp*Wp + dh*Wp + dw`` columns further on. The
    ``kw`` taps of one row differ only in ``dw``, so a block's stacked window
    holds the input ``kw`` times, shifted by ``0..kw-1`` columns, and tap row
    ``(db, dh)`` is one product with the row's ``kw`` taps side by side on
    that window, ``db*Hp*Wp + dh*Wp`` columns on (the memory-efficient
    stacking of Cho and Brand 2017, "MEC"). With ``kw == 1`` the window is a
    view of the padded input and no copy is made. The result is computed on
    the padded ``(B, Hp, Wp)`` grid and cropped to ``(B, H, W)``: the
    positions cropped away sum windows that wrap across a row or plane edge,
    or are never written, and nothing reads them.

    The input gradient is the same stacked gather run on the output
    gradient, embedded in a zeroed padded grid like the input, with the taps
    flipped on every axis and transposed. Each block's first product is
    written through ``out=``, so the input gradient's array needs no
    zero-fill. The weight gradient is one ``(out, in)`` product per tap on
    shifted views of the padded input. The zero border of the gradient grid
    keeps the wrapped positions out of both gradients.

    Both passes walk the ``n`` output columns in blocks of
    ``BLOCK_COLUMNS`` and run every tap inside a block, so the block's
    accumulator, its window and its scratch product stay in cache across
    the taps instead of streaming through memory once per tap (Goto and van
    de Geijn 2008). Every array comes from the workspace. The backward keeps
    the reordered taps, and the value is a view of the output grid. The
    padded input is forward scratch: the backward reads ``x``'s value and
    pads it again, into scratch given back before the input-gradient gather
    (recomputing a cheap forward value instead of keeping it, as Chen et al.
    2016 trade memory for compute), so a set's branches keep their common
    input once instead of a padded copy each. Windows and products are
    block-sized scratch, and at ``C == O`` the two passes' scratch has one
    shape.
    """
    ws = x.ws
    c, b, h, wd = x.data.shape
    kb, kh, kw = extents
    pb, ph, pw = (kb - 1) // 2, (kh - 1) // 2, (kw - 1) // 2
    out_ch = w.data.shape[0]
    bp, hp, wp = b + 2 * pb, h + 2 * ph, wd + 2 * pw
    xp = ws.take((c, bp * hp * wp))
    _pad_into(xp.reshape(c, bp, hp, wp), x.data, (pb, ph, pw))
    n = (b - 1) * hp * wp + (h - 1) * wp + wd
    rows = [db * hp * wp + dh * wp for db in range(kb) for dh in range(kh)]
    shifts = [row + dw for row in rows for dw in range(kw)]
    cols = min(BLOCK_COLUMNS, n)
    blocks = [(lo, min(lo + cols, n)) for lo in range(0, n, cols)]
    taps = ws.take((len(rows), out_ch, kw * c))  # taps[db*kh + dh, o, dw*C + i]
    taps.reshape(kb, kh, out_ch, kw, c)[...] = np.transpose(
        w.data.reshape(out_ch, c, kb, kh, kw), (2, 3, 0, 4, 1)
    )
    grid = ws.take((out_ch, b * hp * wp))
    _tap_rows(taps, xp, rows, blocks, grid, ws)
    out = Node(grid.reshape(out_ch, b, hp, wp)[:, :, :h, :wd], parents=(w, x), ws=ws)
    w_slot, x_slot, x_value = w.slot, x.slot, x.data

    def _backward(g):
        gp = ws.take((out_ch, bp * hp * wp))
        _pad_into(gp.reshape(out_ch, bp, hp, wp), g, (pb, ph, pw))
        front = pb * hp * wp + ph * wp + pw  # output column 0 in gp
        flipped = ws.take((len(rows), c, kw * out_ch))
        flipped.reshape(kb, kh, c, kw, out_ch)[...] = np.transpose(
            taps.reshape(kb, kh, out_ch, kw, c)[::-1, ::-1, :, ::-1], (0, 1, 4, 3, 2)
        )
        gw = ws.take((len(shifts), out_ch, c))
        gw.fill(0.0)
        xp = ws.take((c, bp * hp * wp))  # the padded input again, as in the forward
        _pad_into(xp.reshape(c, bp, hp, wp), x_value, (pb, ph, pw))
        for lo, hi in blocks:
            g_blk = gp[:, front + lo : front + hi]
            for t, s in enumerate(shifts):
                gw[t] += g_blk @ xp[:, lo + s : hi + s].T
        del xp  # back to the workspace before the gather takes more
        w_slot.accumulate(np.moveaxis(gw, 0, 2).reshape(w_slot.shape))
        # gx[:, i] is the gradient of padded input column front + i; the
        # flipped taps read gp from column i to i + 2*front, the last one
        # inside the grid for odd extents.
        gx = ws.take((c, b * hp * wp))
        _tap_rows(flipped, gp, rows, blocks, gx, ws)
        x_slot.accumulate(gx.reshape(c, b, hp, wp)[:, :, :h, :wd])

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
    """1x1x1 map: mix channels with a (out, in) matrix at every position. The
    weight gradient, a product over every position, is summed over
    ``BLOCK_COLUMNS``-wide blocks of positions (``tensor.matmul_nt``)."""
    ws = x.ws
    c, out_ch = x.data.shape[0], w.data.shape[0]
    w_value, x2 = w.data, x.data.reshape(c, -1)
    y = ws.take((out_ch, *x.data.shape[1:]))
    _mix_into(w_value, x2, y.reshape(out_ch, -1))
    out = Node(y, parents=(w, x), ws=ws)
    w_slot, x_slot = w.slot, x.slot

    def _backward(g):
        g2 = g.reshape(out_ch, -1)
        gw = ws.take(w_slot.shape)
        w_slot.accumulate(matmul_nt(g2, x2, gw, BLOCK_COLUMNS))
        del gw  # back to the workspace before the input gradient is taken
        if x_slot.requires_grad:
            gx = ws.take(x_slot.shape)
            _mix_into(w_value.T, g2, gx.reshape(c, -1))
            x_slot.adopt(gx)

    out._backward = _backward
    return out


def concat_channels(parts: list[Node]) -> Node:
    ws = parts[0].ws
    channels = sum(p.data.shape[0] for p in parts)
    y = ws.take((channels, *parts[0].data.shape[1:]))
    np.concatenate([p.data for p in parts], axis=0, out=y)
    out = Node(y, parents=tuple(parts), ws=ws)
    slots = out.slot.parents

    def _backward(g):
        start = 0
        for slot in slots:
            n = slot.shape[0]
            slot.borrow(g[start : start + n])
            start += n

    out._backward = _backward
    return out


def leaky_relu(x: Node, slope: float) -> Node:
    """``max(x, slope*x)``, which is ``x`` where ``x >= 0`` and ``slope*x``
    elsewhere, bit for bit, for ``0 <= slope <= 1``. The node keeps the
    one-byte mask ``x >= 0`` for its backward, which reads no value of
    ``x``."""
    if not 0.0 <= slope <= 1.0:
        raise ConfigError(f"leaky_relu slope must lie in [0, 1], got {slope}")
    ws = x.ws
    mask = ws.take(x.data.shape, np.bool_)
    np.greater_equal(x.data, 0.0, out=mask)  # True where x >= 0 (False at NaN)
    y = ws.take(x.data.shape)
    np.multiply(x.data, slope, out=y)
    np.maximum(x.data, y, out=y)
    out = Node(y, parents=(x,), ws=ws)
    x_slot = x.slot

    def _backward(g):
        gx = ws.take(g.shape)
        np.copyto(gx, mask)  # 1 where x >= 0, else 0
        np.maximum(gx, slope, out=gx)  # 1 where x >= 0, else slope
        np.multiply(gx, g, out=gx)  # g or slope*g, bit for bit
        x_slot.adopt(gx)

    out._backward = _backward
    return out


def add(a: Node, b: Node) -> Node:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"cannot add shapes {a.data.shape} and {b.data.shape}")
    ws = a.ws
    y = ws.take(a.data.shape)
    np.add(a.data, b.data, out=y)
    out = Node(y, parents=(a, b), ws=ws)
    a_slot, b_slot = out.slot.parents

    def _backward(g):
        a_slot.borrow(g)
        b_slot.borrow(g)

    out._backward = _backward
    return out


def scale(x: Node, factor: float) -> Node:
    ws = x.ws
    y = ws.take(x.data.shape)
    np.multiply(x.data, factor, out=y)
    out = Node(y, parents=(x,), ws=ws)
    x_slot = x.slot

    def _backward(g):
        gx = ws.take(g.shape)
        np.multiply(g, factor, out=gx)
        x_slot.adopt(gx)

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
    out = Node(y, parents=(pred,), ws=ws)
    pred_slot = pred.slot

    def _backward(g):
        gx = ws.take(diff.shape)
        np.sign(diff, out=gx)
        np.multiply(g, gx, out=gx)
        np.divide(gx, diff.size, out=gx)
        pred_slot.adopt(gx)

    out._backward = _backward
    return out


def diversity_penalty(x: Node) -> Node:
    """Negative nuclear norm of the channels x (B*H*W) unfolding of ``x``.

    The gradient stays factored as ``-(left @ right)`` (see
    ``regularizer.nuclear_penalty``). The backward keeps only the factors: on
    the Gram path a rows x rows matrix and the unfolding of ``x``, which is
    on the tape already. A non-contiguous ``x`` (a convolution's cropped
    output) is unfolded into a workspace array, not into a fresh copy. Its
    backward forms ``(-g * left) @ right`` one ``BLOCK_COLUMNS``-wide
    column block at a time. When the input already holds a gradient buffer
    of its own, each block goes through one rows x block scratch array and
    is summed into that buffer; otherwise it is written straight into a new
    gradient array. Both paths run the same block products, so they give the
    same bits.

    The Gram matrix and its decomposition are always float64, so
    ``GRAM_MIN_RATIO``'s derivation holds on a float32 tape too. The Gram
    matrix is summed over ``BLOCK_COLUMNS``-wide column blocks of the
    unfolding; on a float32 tape each block is cast into one rows x block
    float64 scratch array, lent by the workspace and given back before the
    op returns, and on a float64 tape each block is a view and no scratch is
    taken. The factors the backward keeps, and the gradient, are in the
    tape's dtype.
    """
    ws = x.ws
    rows = x.data.shape[0]
    if x.data.flags.c_contiguous:
        flat = x.data.reshape(rows, -1)
    else:
        flat = ws.take((rows, x.data.size // rows))
        np.copyto(flat.reshape(x.data.shape), x.data)
    n = flat.shape[1]
    block = min(BLOCK_COLUMNS, n)
    if flat.dtype == np.float64:  # float64 blocks are views of the unfolding
        value, (left, right), _ = nuclear_penalty(flat, cols=block)
    else:
        scratch = ws.take((rows, block), np.float64)
        value, (left, right), _ = nuclear_penalty(flat, scratch)
        del scratch
    # The Gram path's right factor is the unfolding itself, kept as it is.
    left, right = (f.astype(flat.dtype, copy=False) for f in (left, right))
    y = ws.take(())
    y[...] = value
    out = Node(y, parents=(x,), ws=ws)
    bounds = [*range(0, n, block), n]
    x_slot = x.slot

    def _backward(g):
        scaled = np.multiply(left, -float(g))
        if x_slot.grad is None or not x_slot.grad.flags.writeable:
            gx = ws.take(x_slot.shape)
            gx2 = gx.reshape(rows, -1)
            for lo, hi in zip(bounds, bounds[1:]):
                np.matmul(scaled, right[:, lo:hi], out=gx2[:, lo:hi])
            x_slot.adopt(gx)
            return
        gx2 = x_slot.grad.reshape(rows, -1)  # a buffer of x's own: sum into it
        part = ws.take((rows, block))
        for lo, hi in zip(bounds, bounds[1:]):
            gx2[:, lo:hi] += np.matmul(scaled, right[:, lo:hi], out=part[:, : hi - lo])

    out._backward = _backward
    return out
