"""A test oracle state that reads f the way a closure f of x is read."""

import pytest

from iprox import solvers
from iprox.problems import ImageOracle


class FreshOracle(ImageOracle):
    """An ImageOracle that computes every value and gradient afresh from x.

    A block gradient is block i of the gradient of a read at x, as a
    closure grad f(x) gives it, so block moves never leave rounding in the
    image.  Runs with this state patched into the solvers are the
    exact-gradient reference that runs over a kept image must agree with.
    """

    def value(self, x):
        self.refresh(x)
        return super().value(x)

    def block_grad(self, i, x):
        return self.read(x)[1][self.cols[i]]


@pytest.fixture
def fresh_reads(monkeypatch):
    """A call patches FreshOracle into the solvers for the rest of the test."""
    return lambda: monkeypatch.setattr(solvers, "ImageOracle", FreshOracle)
