"""Lower-bound families: construction invariants, adversarial trace counts
against the closed forms, shrink-step fidelity, and the random corpus."""

from collections import Counter
from itertools import permutations

import pytest

from smc.generators import (
    expected_branchings,
    csp_on_graph,
    gen_g3,
    gen_g4,
    gen_g5,
    gen_random_csp,
    gen_random_cubic,
    skeleton_closure,
    trace_lower_bound,
)
from smc.graph import Graph, connected_components


def isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism; only sane for ~12 vertices."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees().values()) != sorted(h.degrees().values()):
        return False
    gv, hv = g.vertices(), h.vertices()
    hedges = {frozenset(e) for e in h.edges()}
    gedges = [frozenset(e) for e in g.edges()]
    for perm in permutations(hv):
        m = dict(zip(gv, perm))
        if all(frozenset((m[u], m[v])) in hedges for u, v in gedges):
            return True
    return False


class TestG3:
    @pytest.mark.parametrize("n", [4, 8, 12, 36, 40, 120, 200])
    def test_structure(self, n):
        g = gen_g3(n)
        assert g.n == n
        assert g.m == 3 * n // 2
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert len(connected_components(g)) == 1

    def test_smallest_is_k4(self):
        assert gen_g3(4) == Graph.complete(4)

    @pytest.mark.parametrize("n", [0, 2, 3, 6, 41])
    def test_bad_n(self, n):
        with pytest.raises(ValueError):
            gen_g3(n)


class TestG4:
    @pytest.mark.parametrize("n3,n4", [(8, 2), (8, 4), (8, 8), (12, 6), (40, 20), (200, 200)])
    def test_structure(self, n3, n4):
        g = gen_g4(n3, n4)
        assert g.n == n3 + n4 - 1
        # the lone x_2 of n4 = 2 has degree 2 and no a gains two x-edges
        assert g.max_degree() == (4 if n4 >= 4 else 3)
        assert len(connected_components(g)) == 1

    def test_no_path_collapses_to_g3(self):
        assert gen_g4(8, 0) == gen_g3(8)
        assert gen_g4(40, 0) == gen_g3(40)

    def test_degree_histogram_8_4(self):
        # a_1, a_2, x_2, x_4 and the untouched a_5..a_8 keep degree 3;
        # a_3, a_4, x_3 reach degree 4
        hist = Counter(gen_g4(8, 4).degrees().values())
        assert hist == {3: 8, 4: 3}

    def test_saturated_family_is_almost_4_regular(self):
        g = gen_g4(200, 200)
        low = [v for v in g.vertices() if g.degree(v) < 4]
        assert len(low) == 4  # a_1, a_2, x_2, x_{n4}

    @pytest.mark.parametrize("n3,n4", [(6, 2), (8, 3), (8, 10), (8, -2)])
    def test_bad_params(self, n3, n4):
        with pytest.raises(ValueError):
            gen_g4(n3, n4)


class TestG5:
    def test_structure_40(self):
        g = gen_g5(40)
        # core g4(20, 12) has 31 vertices, plus n/5 = 8 y's
        assert g.n == 39
        assert g.max_degree() == 5
        ys = [v for v in g.vertices() if v >= 31]
        assert len(ys) == 8
        assert all(g.degree(y) == 5 for y in ys)
        low = [v for v in g.vertices() if g.degree(v) < 5]
        assert len(low) == 3
        assert len(connected_components(g)) == 1

    def test_y1_sees_degree_4(self):
        g = gen_g5(40)
        assert any(g.degree(u) == 4 for u in g.neighbors(31))

    @pytest.mark.parametrize("n", [40, 80, 120, 200])
    def test_structure_sweep(self, n):
        g = gen_g5(n)
        assert g.n == n - 1
        assert g.max_degree() == 5
        assert sum(1 for v in g.vertices() if g.degree(v) < 5) <= 3
        assert len(connected_components(g)) == 1

    def test_removing_ys_leaves_core(self):
        g = gen_g5(80)
        for y in range(63, 79):
            g.delete_vertex(y)
        skeleton_closure(g)
        assert g == gen_g4(40, 24)

    def test_deterministic(self):
        assert gen_g5(40) == gen_g5(40)

    @pytest.mark.parametrize("n", [0, 20, 39, 41, 60])
    def test_bad_n(self, n):
        with pytest.raises(ValueError):
            gen_g5(n)


class TestTrace:
    @pytest.mark.parametrize("n", list(range(4, 44, 4)) + [80, 120])
    def test_g3_counts(self, n):
        t = trace_lower_bound("g3", (n,))
        assert t.reduction3_count == n // 4 == expected_branchings("g3", (n,))
        assert t.guard_failures == []

    @pytest.mark.parametrize(
        "n3,n4",
        [(4, 4), (8, 4), (8, 8), (12, 6), (16, 10), (40, 20), (80, 40), (120, 24)],
    )
    def test_g4_counts(self, n3, n4):
        t = trace_lower_bound("g4", (n3, n4))
        assert t.reduction3_count == n4 // 2 - 2 + n3 // 4
        assert t.guard_failures == []

    @pytest.mark.parametrize("n3,n4", [(8, 0), (8, 2), (40, 2)])
    def test_g4_degenerate_path_costs_nothing(self, n3, n4):
        # with fewer than three x's the path dissolves by reductions alone
        t = trace_lower_bound("g4", (n3, n4))
        assert t.reduction3_count == n3 // 4

    @pytest.mark.parametrize("n", [40, 80, 120])
    def test_g5_counts(self, n):
        t = trace_lower_bound("g5", (n,))
        assert t.reduction3_count == 19 * n // 40 - 2
        assert t.guard_failures == []

    def test_g5_40_is_17(self):
        t = trace_lower_bound("g5", (40,))
        assert t.reduction3_count == 17
        assert t.leaves(2) == 2**17

    def test_step_log(self):
        t = trace_lower_bound("g3", (16,))
        assert len(t.steps) == t.reduction3_count == 4
        assert all(s.degree == 3 for s in t.steps)
        orders = [s.order_after for s in t.steps]
        assert orders == [12, 8, 4, 0]

    def test_g5_step_degrees(self):
        # 8 y-splits at degree 5, then 4 x-splits and the hub at degree 4,
        # then the cubic core
        t = trace_lower_bound("g5", (40,))
        assert [s.degree for s in t.steps] == [5] * 8 + [4] * 5 + [3] * 4

    def test_g4_family_subsumes_g3(self):
        # g4(n3, 0) is g3(n3), and traces the same
        t = trace_lower_bound("g4", (8, 0))
        assert t.reduction3_count == 2
        assert t.steps == trace_lower_bound("g3", (8,)).steps

    def test_unknown_family_or_bad_params(self):
        for family, params in (("g6", (8,)), ("g3", (6,)), ("g4", (8, 3)), ("g5", (20,))):
            with pytest.raises(ValueError):
                trace_lower_bound(family, params)


class TestShrink:
    def test_one_split_lands_on_k4(self):
        g = gen_g3(8)
        g.delete_vertex(7)
        skeleton_closure(g)
        assert g == gen_g3(4)

    def test_one_split_isomorphic_to_smaller(self):
        g = gen_g3(12)
        g.delete_vertex(11)
        skeleton_closure(g)
        assert isomorphic(g, gen_g3(8))

    @pytest.mark.parametrize("n", [40, 120, 200])
    def test_one_split_structural_counts(self, n):
        g = gen_g3(n)
        g.delete_vertex(n - 1)
        skeleton_closure(g)
        assert g.n == n - 4
        assert g.m == 3 * (n - 4) // 2
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert len(connected_components(g)) == 1


class TestRandomCorpus:
    def test_cubic_smallest(self):
        assert gen_random_cubic(4, 1) == Graph.complete(4)

    @pytest.mark.parametrize("n,seed", [(10, 0), (10, 1), (24, 7), (40, 3)])
    def test_cubic_regular_and_deterministic(self, n, seed):
        g = gen_random_cubic(n, seed)
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert g == gen_random_cubic(n, seed)

    def test_cubic_seeds_differ(self):
        assert gen_random_cubic(20, 0) != gen_random_cubic(20, 1)

    @pytest.mark.parametrize("n", [3, 7])
    def test_cubic_bad_n(self, n):
        with pytest.raises(ValueError):
            gen_random_cubic(n, 0)

    def test_csp_shape(self):
        inst = gen_random_csp(7, 10, 3, 5)
        inst.check()
        assert inst.n == 7
        assert inst.graph.m == 10
        assert inst.r == 3
        assert all(len(t) == 9 for t in inst.s_e.values())

    def test_csp_deterministic(self):
        a, b = gen_random_csp(6, 8, 2, 11), gen_random_csp(6, 8, 2, 11)
        assert a.graph == b.graph and a.s_v == b.s_v and a.s_e == b.s_e
        assert a.s_nil == b.s_nil

    def test_csp_on_fixed_graph(self):
        inst = csp_on_graph(gen_random_cubic(10, 2), 2, 9)
        inst.check()
        assert inst.graph == gen_random_cubic(10, 2)

    def test_csp_infeasible(self):
        with pytest.raises(ValueError):
            gen_random_csp(4, 7, 2, 0)
        with pytest.raises(ValueError):
            csp_on_graph(Graph.complete(3), 1, 0)
