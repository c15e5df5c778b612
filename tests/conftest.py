import numpy as np
import pytest

from resset.workspace import Workspace


class FreshArrays(Workspace):
    """A workspace that never recycles: every take is a new array full of NaN,
    so an op that reads a buffer before writing it, or an array given back
    while still in use, shows up against it."""

    def take(self, shape):
        return np.full(shape, np.nan)

    def give(self, *arrays):
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(42)
