"""Fixtures shared by the engine tests."""

import pytest

import smc.setcover


@pytest.fixture
def ladder(monkeypatch):
    """Switch the set-cover path-decomposition terminal off: only
    degree-<=2 pieces are counted directly, everything else runs the
    general branching and the separator ladder."""
    monkeypatch.setattr(smc.setcover, "PD_WIDTH_CAP", -1)
