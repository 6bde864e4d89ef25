"""Fixtures shared by several test modules."""

import pytest

from qvelab import qve


@pytest.fixture
def inversions(monkeypatch):
    """The kernels ``qve.qve_measure`` inverts while the test runs, in call
    order; the inversions themselves run as before."""
    calls = []
    invert = qve.qve_measure

    def spy(W, grid=None):
        calls.append(W)
        return invert(W, grid)

    monkeypatch.setattr(qve, "qve_measure", spy)
    return calls
