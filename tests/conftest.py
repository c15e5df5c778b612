import numpy as np
import pytest

from resset import autodiff as ad
from resset.schemes import KernelSet, set_forward
from resset.workspace import Workspace


class FreshArrays(Workspace):
    """A workspace that never recycles: every take is a new array full of NaN
    in the requested dtype, so an op that reads a buffer before writing it,
    or an array given back while still in use, shows up against it."""

    def take(self, shape, dtype=None):
        return np.full(shape, np.nan, self.dtype if dtype is None else dtype)


def taped_set(ks: KernelSet, x: np.ndarray) -> np.ndarray:
    """The kernel set's convolution set on ``x``: ``schemes.set_forward`` on
    float64 nodes, as a network block runs it."""
    return set_forward(ks.scheme, [ad.Node(w) for w in ks.weights], ad.Node(x)).data


@pytest.fixture
def rng():
    return np.random.default_rng(42)
