"""Arrays lent to the ops of a tape, placed in one arena planned from the
step before.

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

A training step takes and gives back the same arrays in the same order
every time, so the workspace records one step and plans the next ones
offline, as Pisarchyk and Lee 2020 ("Efficient Memory Management for Deep
Neural Net Inference") plan tensor offsets from recorded lifetimes: greedy
by size, largest array first, each at the lowest offset clear of every
placed array whose lifetime overlaps its own. On the toy training run's
float32 tape (31x32x32 cube, width 8, two blocks) the arena holds 14.05 MiB
with the penalty (``res3_1d``) and 9.63 MiB without it (``conv3d``), against
13.81 and 9.56 MiB lent at most at once; ``tests/test_train.py`` pins these
figures. ``train.train_denoiser`` keeps its workspace only while it trains
and runs the holdout's forward pass, and returns copies of the holdout's
arrays, since a view keeps the whole arena alive; the float64 evaluation
runs after the arena is gone.
"""

from __future__ import annotations

import mmap
from math import prod

import numpy as np

ALIGN = 64  # bytes: every planned array starts on a cache line


def _map(nbytes: int) -> mmap.mmap:
    """Anonymous pages of their own, unmapped when the last array on them dies."""
    return mmap.mmap(-1, nbytes)


def _size(take: tuple) -> int:
    """Bytes a take's array spans in the arena: rounded up to ``ALIGN``."""
    shape, dtype = take
    return max(-(-prod(shape) * dtype.itemsize // ALIGN) * ALIGN, ALIGN)


def plan_offsets(events: list) -> dict[int, int]:
    """Arena offset of each take among a step's ``events``, keyed by the take's
    index. A take is ``(shape, dtype)`` and lives from its index until the
    give that names it (``int``), or to the end of the step. Greedy by size:
    largest take first (the earlier among equals), each at the lowest offset
    clear of every placed take whose lifetime overlaps its own."""
    spans = {}  # take index -> [first event, event it is given back at, bytes]
    for t, event in enumerate(events):
        if isinstance(event, int):
            spans[event][1] = t
        else:
            spans[t] = [t, len(events), _size(event)]
    offsets: dict[int, int] = {}
    for i in sorted(spans, key=lambda i: -spans[i][2]):
        start, stop, size = spans[i]
        live = sorted(
            (offsets[j], offsets[j] + spans[j][2])
            for j in offsets
            if spans[j][0] < stop and start < spans[j][1]
        )
        offset = 0
        for lo, hi in live:
            if lo - offset >= size:
                break
            offset = max(offset, hi)
        offsets[i] = offset
    return offsets


class Workspace:
    """Arrays lent to the ops of one run, replayed from a planned step.

    ``take(shape)`` lends an array of that shape in the workspace's
    ``dtype``, or of ``dtype`` when one is given; its contents are whatever
    was last written to its bytes. ``give(*arrays)`` takes arrays it lent
    back; giving back an array that is not lent out raises ``KeyError``: two
    owners of one array would silently overwrite each other. ``reclaim()``
    gives back every array still lent out and ends the step.

    The workspace records each step's events: ``(shape, dtype)`` for a take
    and the take's index for a give. ``reclaim`` plans the step it ends
    (``plan_offsets``) unless that step replayed the plan: one arena of
    ``nbytes`` bytes, touched once so that later steps take no page faults,
    and one ``ALIGN``-aligned view of it per take. A step that repeats the
    planned events, event for event, gets the same views back and allocates
    nothing. From the first event that differs, every take gets a fresh
    array on pages of its own, which go back to the OS when it dies. Up to
    that event the step is the plan, so every view it holds is clear of the
    views it is lent. A workspace that is never reclaimed (every tape but
    training's) only ever lends fresh arrays.

    ``autodiff.Node.release_value`` gives back a value that no backward
    reads once its last forward reader has run, ``autodiff.Node.backward``
    gives back each interior node's other arrays once its backward has run,
    and a gradient buffer lent to other nodes once the last of them has let
    it go. Only ``train.train_denoiser`` keeps one workspace across forward
    passes, reclaiming it between steps; every other tape gets a private
    one.
    """

    __slots__ = ("dtype", "_arena", "_plan", "_views", "_events", "_lent", "_replaying", "__weakref__")

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._arena: mmap.mmap | None = None
        self._plan: list = []  # the planned step's events
        self._views: list = []  # each planned take's view, None at a give
        self._events: list = []  # this step's events so far
        self._lent: dict[int, tuple[int, np.ndarray]] = {}  # id(array) -> (take index, array)
        self._replaying = True  # this step's events so far are the plan's

    @property
    def nbytes(self) -> int:
        """Bytes of the planned arena."""
        return 0 if self._arena is None else len(self._arena)

    def _record(self, event) -> bool:
        """Append ``event`` to the step; whether the step still replays the plan."""
        t = len(self._events)
        self._events.append(event)
        self._replaying = self._replaying and t < len(self._plan) and self._plan[t] == event
        return self._replaying

    def take(self, shape: tuple[int, ...], dtype=None) -> np.ndarray:
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        i = len(self._events)
        if self._record((shape, dtype)):
            array = self._views[i]
        else:
            array = np.ndarray(shape, dtype, _map(_size((shape, dtype))))
        self._lent[id(array)] = (i, array)
        return array

    def give(self, *arrays: np.ndarray) -> None:
        for array in arrays:
            self._record(self._lent.pop(id(array))[0])

    def reclaim(self) -> None:
        """Give back every lent array and end the step, planning it unless it
        replayed the plan; no caller may hold a lent array afterwards."""
        self._lent.clear()
        events, self._events = self._events, []
        replayed = self._replaying and len(events) == len(self._plan)
        self._replaying = True
        if replayed:
            return
        offsets = plan_offsets(events)
        self._plan, self._views, self._arena = events, [None] * len(events), None
        size = max((o + _size(events[i]) for i, o in offsets.items()), default=0)
        if size:
            self._arena = _map(size)
            np.frombuffer(self._arena, np.uint8)[:: mmap.PAGESIZE] = 0
        for i, offset in offsets.items():
            self._views[i] = np.ndarray(*events[i], self._arena, offset)
