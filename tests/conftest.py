"""Fixtures shared by the engine tests."""

import pytest

import smc.domset
import smc.setcover


@pytest.fixture
def ladder(monkeypatch):
    """Switch the path-decomposition terminals off: only degree-<=2
    pieces are counted directly, everything else branches (#DS on the
    separator-case ladder; set cover in its general phase, then on its
    separator ladder)."""
    monkeypatch.setattr(smc.setcover, "PD_WIDTH_CAP", -1)
    monkeypatch.setattr(smc.domset, "PD_WIDTH_CAP", -1)
