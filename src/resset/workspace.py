"""A pool of byte buffers, lent out as typed arrays, that outlives the graphs
it serves.

``autodiff`` takes every array of a tape from a ``Workspace``; the lifetime
contract is in the ``autodiff`` module docstring. A workspace has one dtype,
the precision of the tape it serves: float64 by default, float32 for the
training tape (``train.TRAIN_DTYPE``). An op asks for another dtype only for
scratch that must keep float64 arithmetic, or for a mask: on a float32 tape,
the one rows x ``BLOCK_COLUMNS`` float64 block that the penalty casts the
feature into, one column block at a time, to sum its Gram matrix, and the
one-byte ``bool`` mask that the leaky rectifier keeps for its backward.
``regularizer`` takes nothing from it itself: the taped penalty lends it that
block, and the penalty's gradient stays factored until the taped op's
backward writes the product, block by block, into the feature's gradient, a
buffer taken from here.

The pool lends byte ranges, not whole arrays, so a range that held one shape
and dtype can hold any other that fits (the block splitting and merging of
the caching allocator in Paszke et al. 2019, "PyTorch"; Pisarchyk and Lee
2020, "Efficient Memory Management for Deep Neural Net Inference", measure
what placing tensors at offsets saves over reusing them whole). On the toy
training run's float32 tape (31x32x32 cube, width 8, two blocks, two steps)
the pool holds 21.6 MiB with the penalty (``res3_1d``) and 12.2 MiB without
it (``conv3d``), where a pool of whole arrays keyed by shape and dtype held
27.5 and 12.9 MiB; ``tests/test_train.py`` pins these figures.
``train.train_denoiser`` keeps its workspace only while it trains and runs
the holdout's forward pass, and keeps copies of the holdout's arrays, since
a lent array keeps its whole buffer alive; the float64 evaluation runs
after the pool is gone.
"""

from __future__ import annotations

from bisect import bisect_right
from math import prod

import numpy as np

ALIGN = 64  # bytes: every range starts on a cache line


class Workspace:
    """Byte buffers lent out in best-fit ranges to the ops of one run.

    ``take(shape)`` lends an array of that shape in the workspace's
    ``dtype``, or of ``dtype`` when one is given; its contents are whatever
    was last written to its bytes. It is a view of a range of one of the
    workspace's buffers, ``ALIGN``-aligned and rounded up to ``ALIGN`` bytes:
    the smallest free range that fits (the lowest one among equals), split
    when it is larger. A new buffer, of exactly the range's size, is
    allocated only when no free range fits. ``give(*arrays)`` takes arrays it
    lent back, and a range given back merges with the free ranges beside it
    in its buffer. ``reclaim()`` gives back every array still lent out.
    Giving back an array that is not lent out raises ``KeyError``: two owners
    of one range would silently overwrite each other.

    Between two reclaims the workspace records where each take was placed.
    The next such cycle places its i-th take where the last cycle placed its
    i-th one whenever it asks for the same shape and dtype and a free range
    starts there, and falls back to best fit otherwise. A cycle that repeats the last one's
    takes and gives therefore gets the same ranges and allocates nothing;
    best fit alone does not promise that, since a buffer allocated late in
    one cycle can draw an earlier take in the next and leave a later one
    without room. Each (range, shape, dtype) keeps one view object, so such a
    cycle makes no new arrays either. Nothing goes back to the allocator
    while the workspace lives; ``nbytes`` is what its buffers hold.

    ``autodiff.Node.release_value`` gives back a value that no backward
    reads once its last forward reader has run, ``autodiff.Node.backward``
    gives back each interior node's other arrays once its backward has run,
    and a gradient buffer lent to other nodes once the last of them has let
    it go. Only ``train.train_denoiser`` keeps one workspace across forward
    passes, reclaiming it between steps; every other tape gets a private
    one.
    """

    __slots__ = (
        "dtype", "_buffers", "_bases", "_top", "_free", "_stops", "_lent", "_views",
        "_placed", "_last", "__weakref__",
    )

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        # Ranges are addressed in one space in which buffer k spans
        # [_bases[k], _bases[k] + its size); a gap of ALIGN between buffers
        # keeps ranges of two buffers from merging.
        self._buffers: list[np.ndarray] = []
        self._bases: list[int] = []
        self._top = 0
        self._free: dict[int, int] = {}  # free range start -> stop
        self._stops: dict[int, int] = {}  # free range stop -> start
        # A lent range is the entry (shape, dtype, array, start, stop).
        self._lent: dict[int, tuple] = {}  # id(array) -> entry
        self._views: dict[tuple, np.ndarray] = {}  # (start, shape, dtype) -> array
        self._placed: list[tuple] = []  # this cycle's entries, in the order taken
        self._last: list[tuple] = []  # the last cycle's

    @property
    def nbytes(self) -> int:
        """Bytes held in the workspace's buffers, lent or free."""
        return sum(buffer.nbytes for buffer in self._buffers)

    def take(self, shape: tuple[int, ...], dtype=None) -> np.ndarray:
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        i = len(self._placed)
        if i < len(self._last):  # where the last cycle's i-th take went, if free
            entry = self._last[i]
            if entry[0] == shape and entry[1] is dtype and self._free.get(entry[3], 0) >= entry[4]:
                return self._lend(entry)
        size = max(-(-prod(shape) * dtype.itemsize // ALIGN) * ALIGN, ALIGN)
        start = self._best_fit(size)
        key = (start, shape, dtype)
        array = self._views.get(key)
        if array is None:
            array = self._views[key] = self._view(start, shape, dtype)
        return self._lend((shape, dtype, array, start, start + size))

    def _lend(self, entry: tuple) -> np.ndarray:
        """Lend ``entry``'s range, which starts a free range, as its array."""
        _, _, array, start, stop = entry
        end = self._free.pop(start)
        del self._stops[end]
        if end > stop:
            self._free[stop] = end
            self._stops[end] = stop
        self._placed.append(entry)
        self._lent[id(array)] = entry
        return array

    def give(self, *arrays: np.ndarray) -> None:
        for array in arrays:
            _, _, _, start, stop = self._lent.pop(id(array))
            before = self._stops.pop(start, None)
            if before is not None:
                del self._free[before]
                start = before
            after = self._free.pop(stop, None)
            if after is not None:
                del self._stops[after]
                stop = after
            self._free[start] = stop
            self._stops[stop] = start

    def reclaim(self) -> None:
        """Give back every lent array; no caller may hold one afterwards."""
        self._lent.clear()
        self._free = {base: base + b.nbytes for base, b in zip(self._bases, self._buffers)}
        self._stops = {stop: start for start, stop in self._free.items()}
        self._last, self._placed = self._placed, []

    def _best_fit(self, size: int) -> int:
        """Start of the smallest free range of at least ``size`` bytes, in a
        new buffer when none fits."""
        fits = [(stop - start, start) for start, stop in self._free.items() if stop - start >= size]
        if fits:
            return min(fits)[1]
        raw = np.empty(size + ALIGN, np.uint8)
        skip = -raw.ctypes.data % ALIGN
        base = self._top
        self._buffers.append(raw[skip : skip + size])
        self._bases.append(base)
        self._top += size + ALIGN
        self._free[base] = base + size
        self._stops[base + size] = base
        return base

    def _view(self, start: int, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        k = bisect_right(self._bases, start) - 1
        offset = start - self._bases[k]
        nbytes = prod(shape) * dtype.itemsize
        return self._buffers[k][offset : offset + nbytes].view(dtype).reshape(shape)
