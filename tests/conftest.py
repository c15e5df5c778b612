import numpy as np
import pytest

from resset.workspace import Workspace


class FreshArrays(Workspace):
    """A workspace that never recycles: every take is a new array full of NaN
    in the requested dtype, so an op that reads a buffer before writing it,
    or an array given back while still in use, shows up against it."""

    def take(self, shape, dtype=None):
        return np.full(shape, np.nan, self.dtype if dtype is None else dtype)

    def give(self, *arrays):
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(42)
