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
core's L2 cache across all taps (``BLOCK_COLUMNS``). The im2col unfold in
``tensor.unfold_patches`` is kept only as an independent check of this
kernel, in acceptance criterion 1 and the oracle tests.

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

Lifetime contract:

- An op gives its scratch back before it returns.
- Gradients are lent, not copied, where an op passes its upstream gradient
  on unchanged (as PyTorch's autograd passes a buffer on): ``add`` lends its
  gradient to both parents and ``concat_channels`` lends each part its row
  block. An interior parent's first gradient is then a read-only view of the
  lender's buffer; a lent view is lent on as a view of the same buffer. The
  first further contribution to a borrowed gradient sums the two into a
  buffer of the node's own in one pass. Leaves and the root never borrow:
  their gradients are arrays of their own.
- A value that no backward reads goes back as soon as its last forward
  reader has run: ``Node.release_value`` gives the array that holds it back
  to the workspace and leaves a read-only NaN placeholder of its shape. Of
  the ops, only ``branch_conv``, ``channel_mix`` and ``diversity_penalty``
  read a node's value in their backward, each its input's (``branch_conv``
  pads it again into scratch for its weight gradient; ``mean_abs_error``
  reads a copy of its own, ``leaky_relu`` a one-byte mask of its input's
  signs; ``add``, ``scale`` and ``concat_channels`` read none). So
  ``schemes.set_forward`` releases a parallel set's branch outputs once they
  are concatenated, and ``network.Network`` releases the rectifier's input
  after the rectifier (unless it is the feature volume) and each block's
  aggregate map output after the block's residual add. A convolution's
  input stays on the tape once, however many branches read it.
- ``Node.backward`` gives back the arrays an interior node still owns (its
  value included, unless released) right after the node's own backward has
  run, drops the node's backward closure and its hold on its gradient
  buffer, and leaves its value the read-only NaN placeholder: an interior
  value reads NaN after ``backward``, and nothing the node holds keeps an
  array alive. A buffer goes back once its owner's backward has run and
  every borrower has run its backward or summed into a buffer of its own;
  each node counts the holds on its buffer. The root and the leaves keep
  their values and gradients. Ops reach their own node from the backward
  closure through a weak reference, so a tape holds no reference cycle.
- ``Workspace.reclaim`` takes back everything still lent out. Only
  ``train.train_denoiser`` shares one workspace across forward passes: it
  drops each step's tape and loss, reclaims, and runs the next forward on
  the planned arena, so a steady-state epoch allocates nothing new.
"""

from __future__ import annotations

import weakref

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


def _placeholder(value: np.ndarray) -> np.ndarray:
    """A read-only NaN array of ``value``'s shape and dtype that holds no
    memory of its shape's size."""
    return np.broadcast_to(np.array(np.nan, value.dtype), value.shape)


class Node:
    """A value in the computation graph with its gradient accumulator.

    ``ws`` is the workspace that the node's gradient and the arrays of the
    op that made it come from; ``data`` and ``grad`` are in its dtype. A
    node with ``requires_grad`` false takes no gradient contribution and
    keeps ``grad`` at None. ``_owned`` lists the workspace arrays the
    node's value and backward closure hold. ``grad`` is either a buffer the
    node holds (``_holds`` counts the node and every borrower of it) or a
    read-only view of the buffer of ``_lender``, which is never itself a
    borrower. After the node's backward has run, ``backward`` gives its
    arrays back, drops its hold and its closure, and sets ``data`` to a
    NaN placeholder unless the node is the root; ``release_value`` gives
    back its value's array earlier (see the module docstring). A graph is
    walked backward once.
    """

    __slots__ = (
        "data", "grad", "ws", "requires_grad", "_parents", "_backward", "_owned", "_lender",
        "_holds", "__weakref__",
    )

    def __init__(
        self, data, parents=(), ws: Workspace | None = None, owned=(), requires_grad=True
    ):
        self.ws = Workspace() if ws is None else ws
        self.data = np.asarray(data, dtype=self.ws.dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward = None
        self._owned = owned
        self._lender = None
        self._holds = 0

    def release_value(self):
        """Give the owned array that holds this node's value, the one whose
        bytes the value shares (every lent array is a view of the memory map
        under it, an arena or pages of its own, so ``.base`` names the map,
        not the array), back to the workspace before the node's backward has
        run, for a value that no backward reads and whose forward readers
        have all run (see the module docstring). ``data`` becomes a read-only
        NaN placeholder of the same shape and dtype, so shapes stay readable
        and a backward that reads the value anyway poisons its gradients."""
        held = next((a for a in self._owned if np.may_share_memory(a, self.data)), None)
        if held is None:
            raise ValueError("the node owns no array that holds its value")
        self._owned = tuple(a for a in self._owned if a is not held)
        self.ws.give(held)
        self.data = _placeholder(self.data)

    def _own(self, buffer):
        self.grad, self._holds = buffer, 1

    def _release(self):
        """Drop this node's hold on its gradient; the buffer goes back to the
        workspace with the last hold."""
        owner = self._lender or self
        if owner is not self:
            self.grad = self._lender = None
        owner._holds -= 1
        if owner._holds == 0:
            owner.ws.give(owner.grad)
            owner.grad = None

    def _accumulate(self, g):
        """Add a gradient contribution that the caller keeps. The first one is
        copied; one added to a borrowed gradient is summed with it into a
        buffer of this node's own in one pass."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self._own(self.ws.take(self.data.shape))
            np.copyto(self.grad, g)  # a copy: callers share g
        elif self._lender is not None:
            buffer = self.ws.take(self.data.shape)
            np.add(self.grad, g, out=buffer)
            self._release()
            self._own(buffer)
        else:
            self.grad += g

    def _adopt(self, g):
        """Add a gradient contribution taken from this node's workspace for
        this node alone; the first one becomes the gradient without a copy,
        and so does one added to a borrowed gradient."""
        if not self.requires_grad:
            self.ws.give(g)
        elif self.grad is None:
            self._own(g)
        elif self._lender is not None:
            np.add(self.grad, g, out=g)
            self._release()
            self._own(g)
        else:
            self.grad += g
            self.ws.give(g)

    def _borrow(self, g, lender: Node):
        """Add a gradient contribution ``g`` that is a view of ``lender``'s
        gradient. An interior node's first one is a read-only view of the
        buffer behind it, which stays lent until this node drops its hold;
        leaves and later contributions go through ``_accumulate``."""
        if self._backward is None or self.grad is not None:
            self._accumulate(g)
            return
        owner = lender._lender or lender
        owner._holds += 1
        self.grad, self._lender = g.view(), owner
        self.grad.flags.writeable = False

    def backward(self, seed=None):
        """Push gradients from this node to every ancestor. ``seed`` (ones by
        default) must have this node's shape."""
        seed = np.ones_like(self.data) if seed is None else np.asarray(seed, dtype=self.data.dtype)
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
                    node.ws.give(*node._owned)
                    node._owned, node._backward = (), None
                    node.data = _placeholder(node.data)
                    node._release()


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
    ws.give(prod)
    if stack is not None:
        ws.give(stack)


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
    de Geijn 2008). Every array comes from the workspace. The node owns the
    reordered taps and the output grid until its backward has run. The
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
    ws.give(xp)
    out = Node(
        grid.reshape(out_ch, b, hp, wp)[:, :, :h, :wd],
        parents=(w, x),
        ws=ws,
        owned=(taps, grid),
    )

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
        _pad_into(xp.reshape(c, bp, hp, wp), x.data, (pb, ph, pw))
        for lo, hi in blocks:
            g_blk = gp[:, front + lo : front + hi]
            for t, s in enumerate(shifts):
                gw[t] += g_blk @ xp[:, lo + s : hi + s].T
        ws.give(xp)
        del xp  # on a fresh array this unmaps its pages before the gather takes more
        w._accumulate(np.moveaxis(gw, 0, 2).reshape(w.data.shape))
        # gx[:, i] is the gradient of padded input column front + i; the
        # flipped taps read gp from column i to i + 2*front, the last one
        # inside the grid for odd extents.
        gx = ws.take((c, b * hp * wp))
        _tap_rows(flipped, gp, rows, blocks, gx, ws)
        x._accumulate(gx.reshape(c, b, hp, wp)[:, :, :h, :wd])
        ws.give(gp, flipped, gw, gx)

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
    x2 = x.data.reshape(c, -1)
    y = ws.take((out_ch, *x.data.shape[1:]))
    _mix_into(w.data, x2, y.reshape(out_ch, -1))
    out = Node(y, parents=(w, x), ws=ws, owned=(y,))

    def _backward(g):
        g2 = g.reshape(out_ch, -1)
        gw = ws.take(w.data.shape)
        w._accumulate(matmul_nt(g2, x2, gw, BLOCK_COLUMNS))
        ws.give(gw)
        if x.requires_grad:
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
    lender = weakref.ref(out)  # a strong reference would make a cycle through the closure

    def _backward(g):
        start = 0
        for p in parts:
            n = p.data.shape[0]
            p._borrow(g[start : start + n], lender())
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
    out = Node(y, parents=(x,), ws=ws, owned=(y, mask))

    def _backward(g):
        gx = ws.take(g.shape)
        np.copyto(gx, mask)  # 1 where x >= 0, else 0
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
    lender = weakref.ref(out)  # a strong reference would make a cycle through the closure

    def _backward(g):
        a._borrow(g, lender())
        b._borrow(g, lender())

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
    the tape already. A non-contiguous ``x`` (a convolution's cropped output)
    is unfolded into a workspace array that the node owns, not into a fresh
    copy. Its backward forms ``(-g * left) @ right`` one ``BLOCK_COLUMNS``-wide
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
    taken. The factors the node keeps, and the gradient, are in the tape's
    dtype.
    """
    ws = x.ws
    rows = x.data.shape[0]
    if x.data.flags.c_contiguous:
        flat, owned = x.data.reshape(rows, -1), ()
    else:
        flat = ws.take((rows, x.data.size // rows))
        np.copyto(flat.reshape(x.data.shape), x.data)
        owned = (flat,)
    n = flat.shape[1]
    block = min(BLOCK_COLUMNS, n)
    if flat.dtype == np.float64:  # float64 blocks are views of the unfolding
        value, (left, right), _ = nuclear_penalty(flat, cols=block)
    else:
        scratch = ws.take((rows, block), np.float64)
        value, (left, right), _ = nuclear_penalty(flat, scratch)
        ws.give(scratch)
    # The Gram path's right factor is the unfolding itself, kept as it is.
    left, right = (f.astype(flat.dtype, copy=False) for f in (left, right))
    y = ws.take(())
    y[...] = value
    out = Node(y, parents=(x,), ws=ws, owned=(y, *owned))
    bounds = [*range(0, n, block), n]

    def _backward(g):
        scaled = np.multiply(left, -float(g))
        if x.grad is None or x._lender is not None:
            gx = ws.take(x.data.shape)
            gx2 = gx.reshape(rows, -1)
            for lo, hi in zip(bounds, bounds[1:]):
                np.matmul(scaled, right[:, lo:hi], out=gx2[:, lo:hi])
            x._adopt(gx)
            return
        gx2 = x.grad.reshape(rows, -1)  # a buffer of x's own: sum into it
        part = ws.take((rows, block))
        for lo, hi in zip(bounds, bounds[1:]):
            gx2[:, lo:hi] += np.matmul(scaled, right[:, lo:hi], out=part[:, : hi - lo])
        ws.give(part)

    out._backward = _backward
    return out
