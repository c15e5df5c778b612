"""A shape-keyed pool of float64 arrays that outlives the graphs it serves.

``autodiff`` takes every array of a tape from a ``Workspace``; the lifetime
contract is in the ``autodiff`` module docstring. ``regularizer`` takes
nothing from it: the penalty's gradient stays factored until the taped op's
backward writes the product into a gradient buffer taken from here.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    """Free float64 arrays keyed by shape, lent to the ops of one run.

    ``take(shape)`` hands out a free array of that shape, or a new one when
    none is free; its contents are whatever was last written to it.
    ``give(*arrays)`` puts arrays it lent back on the free list, and
    ``reclaim()`` gives back every array still lent out. Nothing is handed
    back to the allocator while the workspace lives, so a run that repeats
    one graph stops allocating after its first step. Giving back an array
    that is not lent out raises ``KeyError``: two owners of one array would
    silently overwrite each other.

    ``autodiff.Node.backward`` gives back each interior node's arrays once
    its backward has run, and a gradient buffer lent to other nodes once the
    last of them has let it go. Only ``train.train_denoiser`` keeps one workspace
    across forward passes, reclaiming it between steps; every other tape
    gets a private one.
    """

    __slots__ = ("_free", "_lent")

    def __init__(self):
        self._free: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._lent: dict[int, np.ndarray] = {}

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        free = self._free.get(shape)
        array = free.pop() if free else np.empty(shape)
        self._lent[id(array)] = array
        return array

    def give(self, *arrays: np.ndarray) -> None:
        for array in arrays:
            del self._lent[id(array)]
            self._free.setdefault(array.shape, []).append(array)

    def reclaim(self) -> None:
        """Give back every lent array; no caller may hold one afterwards."""
        self.give(*list(self._lent.values()))
