"""Fixtures shared by the engine tests."""

import pytest

import smc.csp_solve
import smc.domset
import smc.policy
import smc.setcover


@pytest.fixture
def ladder(monkeypatch):
    """Switch the path-decomposition terminals off: only degree-<=2
    pieces are counted directly, everything else branches (Max 2-CSP and
    #DS on the separator-case ladder; set cover in its general phase,
    then on its separator ladder)."""
    monkeypatch.setattr(smc.csp_solve, "PD_WIDTH_CAP", -1)
    monkeypatch.setattr(smc.setcover, "PD_WIDTH_CAP", -1)
    monkeypatch.setattr(smc.domset, "PD_WIDTH_CAP", -1)


@pytest.fixture
def no_separators(monkeypatch):
    """Make every decomposition, separation and component split that the
    Max 2-CSP and #DS engines could reach raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the local policy must not separate, decompose or split")

    for module, names in ((smc.policy, ("nice_path_decomposition", "connected_components")),
                          (smc.csp_solve, ("nice_path_decomposition", "separate_cubic")),
                          (smc.domset, ("nice_path_decomposition", "separate_cubic"))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
