"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random
from array import array

import pytest

from reference import chain_edges, domset_counts
from tracer import Tracer, self_times
from workloads import HELD_OUT_SEED, WORKLOADS, check, generate, load_references


@pytest.fixture(scope="module")
def refs():
    return load_references()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic_per_seed(workload, refs):
    def files(seed):
        return [(i.name, i.argv, i.text) for i in generate(workload, seed, refs)]

    assert files(3) == files(3)
    assert files(3) != files(4)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, HELD_OUT_SEED])
def test_every_instance_has_a_reference(workload, seed, refs):
    assert [i.missing for i in generate(workload, seed, refs) if i.missing] == []


def test_frontier_dp_matches_brute_force():
    from smc.domset import LabeledGraph
    from smc.graph import Graph
    from smc.oracles import brute_domset

    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 10)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2 * n))
                 if n > 1}
        expected = brute_domset(LabeledGraph.all_u(Graph(range(n), edges))).to_list(n)
        assert domset_counts(n, sorted(edges)) == expected


def test_self_time_is_span_minus_children():
    #   0 [0,10] -> 1 [1,4] -> 2 [2,3]
    #            -> 3 [5,9]
    parent, start, end = [-1, 0, 1, 0], [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0]
    assert self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_nested_spans_of_one_group_count_once():
    tr = Tracer()
    g_parse, g_copy = tr.groups.index("cli.parse"), tr.groups.index("graph.copy")
    tr.parent, tr.group = array("i", [-1, 0, 1]), array("i", [g_parse, g_parse, g_copy])
    tr.start, tr.end = array("d", [0.0, 1.0, 2.0]), array("d", [8.0, 6.0, 3.0])
    calls, incl, own = tr.layer_totals()
    assert calls["cli.parse"] == 2 and incl["cli.parse"] == 8.0
    assert own["cli.parse"] == 7.0 and own["graph.copy"] == 1.0


def _chain(refs, name):
    return next(i for i in generate("sparse-chains", 5, refs) if i.name == name)


def test_check_rejects_a_corrupted_count_vector(refs):
    inst = _chain(refs, "count-ds-path-36")
    counts = domset_counts(36, chain_edges("path", 36))
    assert check(inst, {"counts": counts}) is None
    corrupted = list(counts)
    corrupted[20] += 1
    assert check(inst, {"counts": corrupted}) == "counts differ from the reference"
    assert check(inst, {"counts": counts[:-1]}) == "count vector has the wrong length"


def test_check_rejects_a_wrong_score_or_witness(refs):
    inst = _chain(refs, "maxcut-path-400")
    adj: dict[int, list[int]] = {}
    for line in inst.text.splitlines()[1:]:
        u, v = map(int, line.split())
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    colors, stack = {0: 0}, [0]
    while stack:  # 2-colour the path: every edge is cut
        u = stack.pop()
        for v in adj[u]:
            if v not in colors:
                colors[v] = 1 - colors[u]
                stack.append(v)
    witness = [colors[v] for v in range(400)]
    assert check(inst, {"score": 399, "assignment": witness}) is None
    assert "differs from the reference" in check(inst, {"score": 398, "assignment": witness})
    witness[0] = 1 - witness[0]
    assert check(inst, {"score": 399, "assignment": witness}) == \
        "witness does not reach the reported score"

    csp = generate("csp-cubic", 5, refs)[0]
    wrong = {"score": csp.score + 1, "assignment": [0] * csp.n}
    assert "differs from the reference" in check(csp, wrong)


def test_tracer_rebinds_every_importer_and_restores(refs):
    import smc.cli
    import smc.csp_solve
    import smc.separator

    original = smc.separator.separate_cubic
    inst = generate("csp-cubic", 5, refs)[0]
    tr = Tracer()
    tr.install()
    try:
        assert smc.csp_solve.separate_cubic is not original
        assert smc.cli.separate_cubic is smc.csp_solve.separate_cubic
        from smc.csp import parse_csp
        from smc.csp_solve import solve
        solve(parse_csp(inst.text))
    finally:
        tr.remove()
    assert smc.csp_solve.separate_cubic is original and smc.cli.separate_cubic is original
    calls, _, _ = tr.layer_totals()
    assert calls["separator.separate"] >= 1 and calls["csp_solve.solve"] == 1
    assert tr.sep_frac and all(0 < f < 1 for f in tr.sep_frac)
