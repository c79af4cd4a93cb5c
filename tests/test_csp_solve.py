"""Engine tests: exact optima with witnesses, pivot selection, policies,
stats counters, and the runtime measure audit."""

import random

import pytest
from hypothesis import given, settings
from strategies import csp_instances

from smc.csp import encode_maxcut, evaluate, zero_instance
from smc.csp_solve import (
    BRUTE_LIMIT,
    CspAudit,
    select_pivot,
    solve,
)
from smc.graph import Graph
from smc.oracles import brute_max2csp
from smc.policy import PivotAction
from smc.separator import Separation, trivial_separation
from smc.weights import CspWeights


def petersen() -> Graph:
    g = Graph(range(10))
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
        g.add_edge(i, i + 5)
        g.add_edge(5 + i, 5 + (i + 2) % 5)
    return g


def hypercube3() -> Graph:
    g = Graph(range(8))
    for u in range(8):
        for b in (1, 2, 4):
            if u < u ^ b:
                g.add_edge(u, u ^ b)
    return g


def two_k4() -> Graph:
    g = Graph(range(8))
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(base + i, base + j)
    return g


def random_cubic(n: int, rng: random.Random) -> Graph:
    """Pairing-model cubic graph (rejection sampling)."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        simple = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                simple = False
                break
            edges.add((min(u, v), max(u, v)))
        if simple:
            g = Graph(range(n))
            for u, v in edges:
                g.add_edge(u, v)
            return g


class TestSolveExamples:
    def test_k4_maxcut(self):
        inst = encode_maxcut(Graph.complete(4))
        sol, stats = solve(inst)
        assert sol.score == 4
        assert evaluate(inst, sol.assignment) == 4
        assert stats.leaves >= 1

    def test_petersen_maxcut(self):
        inst = encode_maxcut(petersen())
        sol, stats = solve(inst)
        assert sol.score == 12
        assert sol.score == brute_max2csp(inst).score
        assert evaluate(inst, sol.assignment) == 12
        # n=10 forces at least one separation of the whole graph
        assert stats.separator_recomputes >= 1

    def test_k5_general(self):
        inst = encode_maxcut(Graph.complete(5))
        sol, _ = solve(inst)
        assert sol.score == 6
        assert evaluate(inst, sol.assignment) == 6

    def test_star_all_leaves_opposite_center(self):
        g = Graph(range(6))
        for leaf in range(1, 6):
            g.add_edge(0, leaf)
        inst = encode_maxcut(g)
        sol, _ = solve(inst)
        assert sol.score == 5
        center = sol.assignment[0]
        assert all(sol.assignment[leaf] != center for leaf in range(1, 6))

    def test_component_split_beats_connected_brute(self):
        split_sol, split_stats = solve(encode_maxcut(two_k4()))
        conn_sol, conn_stats = solve(encode_maxcut(hypercube3()))
        assert split_sol.score == 8
        assert conn_sol.score == 12  # Q₃ is bipartite
        # two K4 brutes (2·2⁴) versus one 8-vertex brute (2⁸)
        assert split_stats.leaves < conn_stats.leaves

    def test_empty_instance(self):
        inst = zero_instance(2, Graph())
        inst.s_nil = 7
        sol, stats = solve(inst)
        assert (sol.score, sol.assignment) == (7, {})
        assert stats.leaves == 1

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            solve(encode_maxcut(Graph.complete(4)), policy="widest")


class TestSolveProperties:
    @given(inst=csp_instances(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, inst):
        sol, _ = solve(inst)
        assert sol.score == brute_max2csp(inst).score
        assert evaluate(inst, sol.assignment) == sol.score

    @given(inst=csp_instances(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_policies_agree_on_score(self, inst):
        sep_sol, _ = solve(inst, policy="separator")
        loc_sol, _ = solve(inst, policy="local")
        assert sep_sol.score == loc_sol.score

    def test_deterministic(self):
        inst = encode_maxcut(petersen())
        a = solve(inst, seed=3)
        b = solve(inst, seed=3)
        assert a[0] == b[0]
        assert (a[1].branchings, a[1].leaves, a[1].separator_recomputes) == (
            b[1].branchings, b[1].leaves, b[1].separator_recomputes)


def _rotation_graph() -> tuple[Graph, Separation]:
    """3-regular, n=10: S={0,14} both see two L vertices and one R vertex;
    R holds six degree-3 vertices against two in L, so |R₃| ≥ |L₃|+2."""
    g = Graph([0, 1, 2, 3, 4, 5, 6, 7, 10, 14])
    for u, v in [(0, 1), (0, 2), (0, 3), (14, 1), (14, 2), (14, 10),
                 (1, 2),
                 (3, 4), (3, 5), (10, 6), (10, 7),
                 (4, 6), (4, 7), (5, 6), (5, 7)]:
        g.add_edge(u, v)
    sep = Separation(left={1, 2}, sep={0, 14}, right={3, 4, 5, 6, 7, 10})
    return g, sep


class TestSelectPivot:
    def test_drag_right_when_no_left_neighbors(self):
        g = Graph.complete(4)
        sep = Separation(left=set(), sep={0, 1, 2}, right={3})
        assert select_pivot(encode_maxcut(g), sep) == PivotAction("drag-R", 0)

    def test_drag_left_when_no_right_neighbors(self):
        g = Graph.complete(4)
        sep = Separation(left={3}, sep={0, 1, 2}, right=set())
        assert select_pivot(encode_maxcut(g), sep) == PivotAction("drag-L", 0)

    def test_rotation_when_right_heavy(self):
        g, sep = _rotation_graph()
        act = select_pivot(encode_maxcut(g), sep)
        assert act == PivotAction("rotate", 0, partner=3)

    def test_two_right_branches(self):
        g, sep = _rotation_graph()
        swapped = Separation(left=sep.right, sep=sep.sep, right=sep.left)
        act = select_pivot(encode_maxcut(g), swapped)
        assert act == PivotAction("branch", 0)

    def test_reduceII_repair_carries_right_endpoint(self):
        # only vertex 0 has degree 2; its ends sit in L and R
        g = Graph([0, 1, 2, 5, 8, 3, 4, 6, 7, 9, 10])
        for u, v in [(0, 1), (0, 3),
                     (1, 2), (1, 5), (2, 5), (2, 8), (5, 8), (8, 9),
                     (3, 4), (3, 9), (9, 6),
                     (4, 7), (4, 10), (6, 7), (6, 10), (7, 10)]:
            g.add_edge(u, v)
        assert sorted(d for _, d in g.degrees().items()) == [2] + [3] * 10
        sep = Separation(left={1, 2, 5}, sep={0, 8},
                         right={3, 4, 6, 7, 9, 10})
        act = select_pivot(encode_maxcut(g), sep)
        assert act == PivotAction("reduceII", 0, partner=3)

    def test_empty_separator_rejected(self):
        g = Graph.complete(4)
        sep = trivial_separation(g.vertices())
        with pytest.raises(ValueError):
            select_pivot(encode_maxcut(g), sep)


class TestAudit:
    def test_random_cubic_runs_clean(self):
        rng = random.Random(20260814)
        for t in range(6):
            g = random_cubic(16, rng)
            inst = encode_maxcut(g)
            audit = CspAudit()
            sol, stats = solve(inst, audit=audit, seed=t)
            assert sol.score == brute_max2csp(inst).score
            assert audit.violations == []
            assert all(e.eta_ok for e in audit.entries if e.hard)
            assert stats.measure_trace, "audit runs collect the μ trace"

    def test_strict_mode_raises(self):
        g = Graph.complete(4)
        parent = Separation(left=set(), sep={0, 1, 2}, right={3})
        child = Separation(left=set(), sep={0, 1, 2, 3}, right=set())
        audit = CspAudit(strict=True)
        with pytest.raises(AssertionError):
            # growing the separator raises η: not a legal step
            audit.record("drag-R", 2, (g, parent), [(g, child)])

    def test_nonstrict_mode_collects(self):
        g = Graph.complete(4)
        parent = Separation(left=set(), sep={0, 1, 2}, right={3})
        child = Separation(left=set(), sep={0, 1, 2, 3}, right=set())
        audit = CspAudit()
        audit.record("drag-R", 2, (g, parent), [(g, child)])
        assert len(audit.violations) == 1
        assert not audit.violations[0].eta_ok

    def test_soft_steps_never_violate(self):
        g = Graph.complete(4)
        sep = trivial_separation(g.vertices())
        audit = CspAudit(strict=True)
        # re-separation may raise η and μ freely: logged, not checked
        audit.record("reseparate", 2,
                     (g, sep), [(g, Separation(set(), {0, 1, 2}, {3}))],
                     eta_exempt=True)
        assert audit.violations == []


class TestStats:
    def test_connected_brute_leaf_count(self):
        inst = encode_maxcut(hypercube3())
        _, stats = solve(inst)
        assert stats.leaves == 2 ** 8
        assert stats.branchings == 0
        assert stats.separator_recomputes == 0

    def test_local_policy_skips_separators(self):
        inst = encode_maxcut(petersen())
        sol, stats = solve(inst, policy="local")
        assert sol.score == 12
        assert stats.separator_recomputes == 0

    def test_brute_limit_is_modest(self):
        assert 4 <= BRUTE_LIMIT <= 10
