"""Shared fixtures."""

import pytest

from fpowers import gb


@pytest.fixture
def queue_pops(monkeypatch):
    """Every (i, j) a gb.PairQueue pops, in order."""
    pops = []
    real = gb.PairQueue.pop

    def pop(self):
        i, j, l = real(self)
        pops.append((i, j))
        return i, j, l
    monkeypatch.setattr(gb.PairQueue, "pop", pop)
    return pops
