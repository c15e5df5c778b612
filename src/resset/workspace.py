"""A pool of arrays keyed by shape and dtype that outlives the graphs it serves.

``autodiff`` takes every array of a tape from a ``Workspace``; the lifetime
contract is in the ``autodiff`` module docstring. A workspace has one dtype,
the precision of the tape it serves: float64 by default, float32 for the
training tape (``train.TRAIN_DTYPE``). An op asks for another dtype only for
scratch that must keep float64 arithmetic: on a float32 tape, the one
rows x ``BLOCK_COLUMNS`` float64 block that the penalty casts the feature
into, one column block at a time, to sum its Gram matrix. ``regularizer``
takes nothing from it itself: the taped penalty lends it that block, and the
penalty's gradient stays factored until the taped op's backward writes the
product, block by block, into the feature's gradient, a buffer taken from
here.

A workspace holds every array it ever lent: for each shape, as many as it
had lent at once. That is less than the whole tape, because the arrays of
values that no backward reads go back during the forward pass and are lent
again to later ops of the same shape. On the toy training run's float32
tape the pool is 27.5 MiB with the penalty and 12.9 MiB without it.
``train.train_denoiser`` keeps its workspace only while it trains and runs
the holdout's forward pass; the float64 evaluation runs after the pool is
gone.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    """Free arrays keyed by shape and dtype, lent to the ops of one run.

    ``take(shape)`` hands out a free array of that shape in the workspace's
    ``dtype``, or of ``dtype`` when one is given, or a new one when none is
    free; its contents are whatever was last written to it. ``give(*arrays)``
    puts arrays it lent back on the free list, and ``reclaim()`` gives back
    every array still lent out. Nothing is handed back to the allocator while
    the workspace lives, so a run that repeats one graph stops allocating
    after its first step. Giving back an array that is not lent out raises
    ``KeyError``: two owners of one array would silently overwrite each other.

    ``autodiff.Node.release_value`` gives back a value that no backward
    reads once its last forward reader has run, ``autodiff.Node.backward``
    gives back each interior node's other arrays once its backward has run,
    and a gradient buffer lent to other nodes once the last of them has let
    it go. Only ``train.train_denoiser`` keeps one workspace across forward
    passes, reclaiming it between steps; every other tape gets a private
    one.
    """

    __slots__ = ("dtype", "_free", "_lent", "__weakref__")

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._free: dict[tuple[tuple[int, ...], np.dtype], list[np.ndarray]] = {}
        self._lent: dict[int, np.ndarray] = {}

    def take(self, shape: tuple[int, ...], dtype=None) -> np.ndarray:
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        free = self._free.get((shape, dtype))
        array = free.pop() if free else np.empty(shape, dtype)
        self._lent[id(array)] = array
        return array

    def give(self, *arrays: np.ndarray) -> None:
        for array in arrays:
            del self._lent[id(array)]
            self._free.setdefault((array.shape, array.dtype), []).append(array)

    def reclaim(self) -> None:
        """Give back every lent array; no caller may hold one afterwards."""
        self.give(*list(self._lent.values()))
