"""The benchmark's per-layer tracer still sees every engine layer.

``perfbench/tracer.py`` wraps functions by their module-level names, so a
refactor that stops calling a traced name through its own module (by
binding it into a class attribute or a local alias, say) zeroes that
layer's metric without failing anything else.  This runs one Max 2-CSP
instance at the shipped width cap and once more on its ladder, and one
#DS and one set-cover instance with the width-capped terminals off,
under the tracer, and checks that each engine layer fired: the terminal
sweeps, the separators, the path decompositions, the case ladder (in
the Max 2-CSP and in the #DS run), the branching reduction, the
component splits, the #DS branch and the set-cover stall.  A path, which
the Max 2-CSP engine only reduces, must show its reductions too, and a
#DS count of paths and cycles alone its terminal.  The tracer is loaded
read-only from its file.
"""

import importlib.util
from pathlib import Path

import smc.cli  # noqa: F401  (imports every module the tracer wraps)
import smc.csp_solve
import smc.domset
import smc.setcover
from smc.csp import encode_maxcut
from smc.csp_solve import solve
from smc.domset import LabeledGraph, count_ds
from smc.generators import csp_on_graph, gen_random_cubic
from smc.graph import Graph
from smc.setcover import ds_to_sc, sc_count

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def test_every_engine_layer_fires(monkeypatch):
    tr = tracer.Tracer()
    tr.install()
    try:
        inst = csp_on_graph(gen_random_cubic(16, 0), 2, 0)
        solve(inst)
        for module in (smc.csp_solve, smc.domset, smc.setcover):
            monkeypatch.setattr(module, "PD_WIDTH_CAP", -1)
        solve(inst)
        csp_calls, _, _ = tr.layer_totals()  # the Max 2-CSP engine's own
        csp_counts = dict(tr.counts)
        count_ds(LabeledGraph.all_u(gen_random_cubic(14, 0)))
        ds_calls, _, _ = tr.layer_totals()
        sc_count(ds_to_sc(gen_random_cubic(12, 0)))
    finally:
        tr.remove()
    calls, _, _ = tr.layer_totals()
    fired = {group: csp_calls[group] for group in
             ("csp_solve.brute", "separator.separate", "separator.pd", "policy.case",
              "csp.reduce")}
    fired["graph.components"] = csp_counts["graph.components"]
    fired["policy.case in #DS"] = ds_calls["policy.case"] - csp_calls["policy.case"]
    fired.update((group, calls[group]) for group in ("domset.terminal", "setcover.sc_dp"))
    fired.update((group, tr.counts[group]) for group in ("domset.branch3", "setcover.stall"))
    assert all(fired.values()), fired


def test_reductions_fire_on_a_reduce_only_solve():
    tr = tracer.Tracer()
    tr.install()
    try:
        solve(encode_maxcut(Graph.path(40)))
    finally:
        tr.remove()
    calls, _, _ = tr.layer_totals()
    assert calls["csp.reduce"] >= 40, calls


def test_terminal_fires_on_a_chain_only_count():
    tr = tracer.Tracer()
    tr.install()
    try:
        count_ds(LabeledGraph.all_u(Graph.path(30)))
        count_ds(LabeledGraph.all_u(Graph.cycle(20)), policy="local")
    finally:
        tr.remove()
    calls, _, _ = tr.layer_totals()
    assert calls["domset.terminal"] == 2, calls
