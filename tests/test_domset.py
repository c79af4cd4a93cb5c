"""Dominating-set counter: branching rules, terminal counters, pivot
sharing with the CSP engine, and oracle equivalence on labeled graphs."""

import random

import pytest
from hypothesis import assume, given, settings
from strategies import labeled_subcubic

from smc.counts import CountVector
from smc.csp import encode_maxcut
from smc.csp_solve import select_pivot
from smc.domset import (
    C,
    N,
    U,
    DsAudit,
    LabeledGraph,
    branch3,
    count_ds,
    format_labeled_graph,
    parse_labeled_graph,
    select_pivot_ds,
)
from smc.graph import Graph
from smc.oracles import brute_domset
from smc.separator import separate_cubic

BOTH = ("separator", "local")


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
            return Graph(range(n), edges)


def prism(k: int) -> Graph:
    rim = [(i, (i + 1) % k) for i in range(k)]
    return Graph(
        range(2 * k),
        rim + [(k + u, k + v) for u, v in rim] + [(i, k + i) for i in range(k)],
    )


def k4_union(copies: int) -> Graph:
    return Graph(
        range(4 * copies),
        [
            (4 * b + i, 4 * b + j)
            for b in range(copies)
            for i in range(4)
            for j in range(i + 1, 4)
        ],
    )


def subdivide(g: Graph, edges_to_split) -> Graph:
    h = g.copy()
    nxt = max(g.vertices()) + 1
    for u, v in edges_to_split:
        h.remove_edge(u, v)
        h.add_vertex(nxt)
        h.add_edge(u, nxt)
        h.add_edge(nxt, v)
        nxt += 1
    return h


class TestBranch3:
    def test_k4_children(self):
        g_in, g_opt, g_forb = branch3(LabeledGraph.all_u(Graph.complete(4)), 0)
        for child, lab in ((g_in, C), (g_opt, U), (g_forb, N)):
            assert sorted(child.graph.vertices()) == [1, 2, 3]
            assert child.graph.degree(1) == 2  # the triangle survives
            assert all(child.label[v] == lab for v in (1, 2, 3))

    def test_mixed_neighbor_labels(self):
        g = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
        lg = LabeledGraph(g, {0: U, 1: U, 2: N, 3: C})
        g_in, g_opt, g_forb = branch3(lg, 0)
        assert g_in.label == {1: C, 3: C}  # N neighbor settled and deleted
        assert g_opt.label == {1: U, 2: N, 3: C}
        assert g_forb.label == {1: N, 2: N}  # C neighbor may not join: deleted

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            branch3(LabeledGraph.all_u(Graph.path(3)), 1)

    @given(labeled_subcubic(max_n=8))
    def test_recombination_matches_oracle(self, lg):
        deg3 = [v for v in lg.graph.vertices() if lg.graph.degree(v) == 3]
        assume(deg3)
        g_in, g_opt, g_forb = branch3(lg, deg3[0])
        got = brute_domset(g_in).shift(1) + brute_domset(g_opt) - brute_domset(g_forb)
        assert got == brute_domset(lg)


class TestTerminalShapes:
    @pytest.mark.parametrize("policy", BOTH)
    def test_triangle(self, policy):
        vec, _ = count_ds(LabeledGraph.all_u(Graph.complete(3)), policy=policy)
        assert vec.to_list(3) == [0, 3, 3, 1]

    @pytest.mark.parametrize("policy", BOTH)
    def test_p3(self, policy):
        vec, _ = count_ds(LabeledGraph.all_u(Graph.path(3)), policy=policy)
        assert vec.to_list(3) == [0, 1, 3, 1]

    @pytest.mark.parametrize("policy", BOTH)
    def test_k4(self, policy):
        vec, _ = count_ds(LabeledGraph.all_u(Graph.complete(4)), policy=policy)
        assert vec.to_list(4) == [0, 4, 6, 4, 1]

    def test_two_triangles_convolve(self):
        g = Graph(range(6), [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        vec, _ = count_ds(LabeledGraph.all_u(g))
        assert vec.to_list(6) == [0, 0, 9, 18, 15, 6, 1]

    def test_isolated_factors(self):
        g = Graph(range(3))
        vec, _ = count_ds(LabeledGraph(g, {0: U, 1: N, 2: C}))
        assert vec == CountVector.zero()  # isolated N can never be dominated
        vec2, _ = count_ds(LabeledGraph(g, {0: U, 1: C, 2: C}))
        # isolated U must dominate itself: [0,1] ⊗ [1,1] ⊗ [1,1]
        assert vec2.to_list(3) == [0, 1, 2, 1]

    @pytest.mark.parametrize(
        "g",
        [Graph.path(n) for n in range(2, 10)]
        + [Graph.cycle(n) for n in range(3, 10)]
        + [prism(3), prism(4), Graph.complete(4)],
    )
    def test_structured_all_u(self, g):
        want = brute_domset(LabeledGraph.all_u(g))
        for policy in BOTH:
            vec, _ = count_ds(
                LabeledGraph.all_u(g), policy=policy, audit=DsAudit(strict=True)
            )
            assert vec == want

    def test_core_dp_shapes_no_branching(self):
        rng = random.Random(5)
        theta = Graph(range(5), [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
        lollipop = Graph(range(4), [(0, 1), (1, 2), (2, 0), (0, 3)])
        subk4 = subdivide(Graph.complete(4), sorted(Graph.complete(4).edges()))
        for g in (theta, lollipop, subk4):
            for _ in range(5):
                label = {
                    v: U if g.degree(v) == 3 else rng.choice([U, N, C])
                    for v in g.vertices()
                }
                lg = LabeledGraph(g, label)
                vec, stats = count_ds(lg, audit=DsAudit(strict=True))
                assert vec == brute_domset(lg)
                assert stats.branchings == 0  # chain DP covers the whole core


class TestCombine:
    def test_identity(self):
        b = CountVector((0, 3, 3, 1))
        assert CountVector.one().convolve(b) == b

    def test_zero_annihilates(self):
        got = CountVector.zero().convolve(CountVector((0, 3, 3, 1)))
        assert got == CountVector.zero()

    def test_triangle_pair(self):
        t = CountVector((0, 3, 3, 1))
        assert t.convolve(t).to_list(6) == [0, 0, 9, 18, 15, 6, 1]


class TestOracleEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(labeled_subcubic(max_n=10))
    def test_both_policies_match_brute(self, lg):
        want = brute_domset(lg)
        for policy in BOTH:
            vec, _ = count_ds(lg, policy=policy, audit=DsAudit(strict=True))
            assert vec == want


class TestPivotSharing:
    def test_matches_csp_selection_on_cubic(self):
        rng = random.Random(0)
        for trial in range(60):
            g = random_cubic(rng.choice([8, 10, 12, 14]), rng)
            sep = separate_cubic(g, seed=trial)
            a = select_pivot_ds(LabeledGraph.all_u(g), sep)
            b = select_pivot(encode_maxcut(g), sep)
            assert a == b


class TestEngine:
    def test_k4_unions_branch_counts(self):
        for copies in (4, 6, 8):
            lg = LabeledGraph.all_u(k4_union(copies))
            vec_s, sep_stats = count_ds(lg, policy="separator")
            vec_l, loc_stats = count_ds(lg, policy="local")
            assert vec_s == vec_l
            assert sep_stats.branchings == 0  # every K4 is a chain-DP core
            assert loc_stats.branchings == (3**copies - 1) // 2
            assert sep_stats.branchings < loc_stats.branchings

    def test_subdivided_cubic_policies_agree(self):
        rng = random.Random(11)
        g = random_cubic(22, rng)
        es = sorted(g.edges())
        rng.shuffle(es)
        h = subdivide(g, es[:4])  # 22 degree-3 cores: must branch before DP
        audit = DsAudit(strict=True)
        vec_s, st_s = count_ds(LabeledGraph.all_u(h), audit=audit)
        vec_l, st_l = count_ds(LabeledGraph.all_u(h), policy="local")
        assert vec_s == vec_l
        assert 0 < st_s.branchings < st_l.branchings
        assert st_s.dp_calls > 0
        assert not audit.violations
        assert not audit.gamma_flags

    def test_cubic_enum_fallback(self):
        rng = random.Random(3)
        g = random_cubic(22, rng)
        audit = DsAudit(strict=True)
        vec_s, st_s = count_ds(LabeledGraph.all_u(g), audit=audit)
        vec_l, _ = count_ds(LabeledGraph.all_u(g), policy="local")
        assert vec_s == vec_l
        assert st_s.enum_calls > 0  # children stay above the core cap
        assert st_s.separator_recomputes >= 1
        assert vec_s.to_list(22)[22] == 1  # V dominates V

    def test_explicit_separation(self):
        rng = random.Random(9)
        g = random_cubic(16, rng)
        lg = LabeledGraph.all_u(g)
        v1, _ = count_ds(lg, sep=separate_cubic(g, seed=5), audit=DsAudit(strict=True))
        v2, _ = count_ds(lg)
        assert v1 == v2

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            count_ds(LabeledGraph.all_u(Graph.complete(3)), policy="greedy")


class TestTextFormat:
    def test_round_trip(self):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
        lg = LabeledGraph(g, {0: N, 1: U, 2: C, 3: U})
        back = parse_labeled_graph(format_labeled_graph(lg))
        assert back.label == lg.label
        assert sorted(back.graph.edges()) == sorted(g.edges())

    def test_bad_label_line(self):
        with pytest.raises(ValueError):
            parse_labeled_graph("graph 1 0\nlabel 0 X\n")

    def test_degree3_must_stay_u(self):
        txt = format_labeled_graph(LabeledGraph.all_u(Graph.complete(4)))
        with pytest.raises(AssertionError):
            parse_labeled_graph(txt + "label 0 C\n")
