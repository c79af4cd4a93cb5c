import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import graphs

from smc.generators import gen_random_cubic
from smc.graph import Graph
from smc.oracles import brute_pathwidth
from smc.separator import (
    PathDecomposition,
    Separation,
    _greedy_layout,
    nice_path_decomposition,
    separate_balanced_by_measure,
    separate_cubic,
    trivial_separation,
    verify_separation,
)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(range(10), outer + inner + spokes)


# -- reference: the direct (non-incremental) path-decomposition route ----------


def reference_layout(g: Graph, first: int) -> tuple[list[int], int]:
    """Greedy layout that rebuilds the whole boundary for every candidate."""
    placed: set[int] = set()
    boundary: set[int] = set()
    order: list[int] = []
    remaining = set(g.vertices())

    def boundary_after(v: int) -> int:
        new_b = {u for u in boundary | {v} if any(w not in placed and w != v for w in g.neighbors(u))}
        return len(new_b)

    current = first
    width = 0
    while True:
        order.append(current)
        placed.add(current)
        remaining.discard(current)
        boundary = {
            u
            for u in boundary | {current}
            if any(w not in placed for w in g.neighbors(u))
        }
        width = max(width, len(boundary))
        if not remaining:
            return order, width
        current = min(
            remaining,
            key=lambda v: (
                boundary_after(v),
                -sum(1 for u in g.neighbors(v) if u in placed),
                v,
            ),
        )


def reference_bags(g: Graph, starts: int = 16) -> list[frozenset[int]]:
    """Best-of-starts layout; raw bags by position scan, then nicified."""
    vs = g.vertices()
    if not vs:
        return []
    best_order, best_width = None, None
    for first in vs[: min(len(vs), starts)]:
        order, width = reference_layout(g, first)
        if best_width is None or width < best_width:
            best_order, best_width = order, width
    order = best_order
    pos = {v: i for i, v in enumerate(order)}
    raw: list[frozenset[int]] = []
    for i, v in enumerate(order):
        bag = {v} | {
            u
            for u in order[:i]
            if any(pos[w] >= i for w in g.neighbors(u))
        }
        raw.append(frozenset(bag))
    bags: list[frozenset[int]] = [raw[0]]
    for prev, nxt in zip(raw, raw[1:]):
        cur = prev
        for v in sorted(prev - nxt):
            cur = cur - {v}
            bags.append(cur)
        for v in sorted(nxt - prev):
            cur = cur | {v}
            bags.append(cur)
    return bags


def reference_sweep(g: Graph, w: dict[int, Fraction], cap: Fraction) -> Separation:
    """First balanced bag, with μ_L and μ_S summed afresh at every bag."""
    vs = g.vertices()
    if not vs:
        return Separation(set(), set(), set())
    total = sum(w.values())
    seen: set[int] = set()
    for bag in reference_bags(g):
        seen |= bag
        left = {v for v in seen if v not in bag}
        mu_l = sum(w[v] for v in left)
        mu_s = sum(w[v] for v in bag)
        mu_r = total - mu_l - mu_s
        if abs(mu_l - mu_r) <= cap:
            right = {v for v in vs if v not in left and v not in bag}
            if mu_l > mu_r:
                left, right = right, left
            return Separation(left, set(bag), right)
    raise AssertionError("bag sweep found no balanced separation")


def relabeled(g: Graph, seed: int) -> Graph:
    ids = random.Random(seed).sample(range(10 * g.n + 10), g.n)
    return Graph(
        (ids[v] for v in g.vertices()), ((ids[u], ids[v]) for u, v in g.edges())
    )


@st.composite
def weighted_graphs(draw):
    g = draw(graphs(max_n=40, max_degree=6))
    cap = draw(st.fractions(min_value=Fraction(1, 4), max_value=5, max_denominator=12))
    weight = st.fractions(min_value=0, max_value=cap, max_denominator=12)
    return g, {v: draw(weight) for v in g.vertices()}, cap


class TestVerify:
    def test_trivial(self):
        g = Graph.complete(4)
        assert verify_separation(g, trivial_separation(g.vertices()))

    def test_path(self):
        g = Graph.path(3)
        assert verify_separation(g, Separation({0}, {1}, {2}))

    def test_crossing_edge(self):
        g = Graph.path(2)
        assert not verify_separation(g, Separation({0}, set(), {1}))

    def test_non_partition(self):
        g = Graph.path(2)
        with pytest.raises(ValueError):
            verify_separation(g, Separation({0}, {0}, {1}))
        with pytest.raises(ValueError):
            verify_separation(g, Separation({0}, set(), set()))


def unit_sweep(g: Graph) -> Separation:
    return separate_cubic(g, nice_path_decomposition(g))


class TestSeparateCubic:
    def test_k4(self):
        # complete graph: any valid separation has an empty side, and the
        # side-balance bound then forces |S| = 3
        g = Graph.complete(4)
        s = unit_sweep(g)
        assert verify_separation(g, s)
        assert len(s.sep) == 3

    def test_c6(self):
        # the first balanced bag wins, not the smallest: the 2-2-2 bag of
        # test_c6_sweep_reaches_222 comes later in the sweep
        g = Graph.cycle(6)
        s = unit_sweep(g)
        assert (s.left, s.sep, s.right) == ({1}, {0, 2, 3}, {4, 5})

    def test_empty(self):
        s = unit_sweep(Graph())
        assert (s.left, s.sep, s.right) == (set(), set(), set())

    def test_degree_guard(self):
        # the sweep's balance argument holds up to max degree 6
        assert verify_separation(Graph.complete(5), unit_sweep(Graph.complete(5)))
        with pytest.raises(ValueError):
            unit_sweep(Graph.complete(8))

    @settings(max_examples=60)
    @given(graphs(max_n=40, max_degree=3))
    def test_valid_and_balanced(self, g):
        s = unit_sweep(g)
        assert verify_separation(g, s)
        bound = -(-(g.n - len(s.sep)) // 2)
        assert len(s.left) <= bound and len(s.right) <= bound
        assert len(s.left) <= len(s.right)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=40, max_degree=3))
    def test_matches_reference_sweep(self, g):
        s = unit_sweep(g)
        ref = reference_sweep(g, dict.fromkeys(g.vertices(), Fraction(1)), Fraction(1))
        assert (s.left, s.sep, s.right) == (ref.left, ref.sep, ref.right)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_sweep_on_relabelled_cubic(self, seed):
        g = relabeled(gen_random_cubic(40, seed), seed)
        s = unit_sweep(g)
        ref = reference_sweep(g, dict.fromkeys(g.vertices(), Fraction(1)), Fraction(1))
        assert (s.left, s.sep, s.right) == (ref.left, ref.sep, ref.right)


class TestPathDecomposition:
    def test_path_width_1(self):
        d = nice_path_decomposition(Graph.path(6))
        assert d.width == 1

    def test_cycle_width_2(self):
        assert nice_path_decomposition(Graph.cycle(7)).width == 2

    def test_k4_width_3(self):
        assert nice_path_decomposition(Graph.complete(4)).width == 3

    def test_empty(self):
        assert nice_path_decomposition(Graph()).bags == []

    @settings(max_examples=40)
    @given(graphs(max_n=10))
    def test_near_exact_small(self, g):
        if g.n == 0:
            return
        d = nice_path_decomposition(g)
        d.validate(g)
        assert len(d.bags) <= 2 * g.n + 1
        assert d.width <= brute_pathwidth(g) + 2

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=40, max_degree=6))
    def test_bags_match_reference(self, g):
        assert nice_path_decomposition(g).bags == reference_bags(g)

    @pytest.mark.parametrize("n", [10, 16, 18, 24])
    def test_layout_matches_reference_from_every_start(self, n):
        for g in (gen_random_cubic(n, n), relabeled(gen_random_cubic(n, n + 1), n)):
            adj = {v: g.neighbors(v) for v in g.vertices()}
            for first in g.vertices():
                assert _greedy_layout(adj, first) == reference_layout(g, first)

    def test_layout_isolated_vertices_and_components(self):
        g = Graph(range(12), [(3, 4), (4, 5), (5, 3), (7, 9), (9, 11), (10, 11)])
        adj = {v: g.neighbors(v) for v in g.vertices()}
        for first in g.vertices():
            assert _greedy_layout(adj, first) == reference_layout(g, first)


class TestValidate:
    """One rejection per rule; each must raise ValueError."""

    G = Graph.path(3)  # 0-1-2

    @staticmethod
    def pd(*bags: set[int]) -> PathDecomposition:
        return PathDecomposition([frozenset(b) for b in bags])

    def test_accepts_nice_decomposition(self):
        self.pd({0}, {0, 1}, {1}, {1, 2}, {2}).validate(self.G)

    def test_non_contiguous_interval(self):
        d = self.pd({0, 1}, {1, 2}, {0, 2})
        with pytest.raises(ValueError, match="contiguous"):
            d.validate(self.G, nice=False)

    def test_missing_vertex(self):
        with pytest.raises(ValueError, match="contiguous"):
            self.pd({0}, {0, 1}, {1}).validate(self.G)

    def test_uncovered_edge(self):
        with pytest.raises(ValueError, match="edge"):
            self.pd({0}, {0, 1}, {0}, {2}).validate(self.G, nice=False)

    def test_non_nice_step(self):
        d = self.pd({0, 1}, {1, 2})
        d.validate(self.G, nice=False)
        with pytest.raises(ValueError, match="differ"):
            d.validate(self.G)

    def test_foreign_vertex(self):
        with pytest.raises(ValueError, match="not in the graph"):
            self.pd({0}, {0, 1}, {1}, {1, 2}, {2}, {2, 7}).validate(self.G)


def sweep(g: Graph, weight, cap) -> Separation:
    return separate_balanced_by_measure(g, weight, cap, nice_path_decomposition(g))


class TestBalancedByMeasure:
    @staticmethod
    def unit(_v: int) -> Fraction:
        return Fraction(1)

    def test_p5(self):
        g = Graph.path(5)
        s = sweep(g, self.unit, Fraction(1))
        assert verify_separation(g, s)
        assert abs(len(s.left) - len(s.right)) <= 1

    def test_c6_sweep_reaches_222(self):
        g = Graph.cycle(6)
        found = False
        seen: set[int] = set()
        for bag in nice_path_decomposition(g).bags:
            seen |= bag
            left = seen - bag
            right = set(g.vertices()) - seen
            if len(bag) == 2 and len(left) == 2 and len(right) == 2:
                found = True
        assert found

    def test_single_vertex(self):
        g = Graph([0])
        s = sweep(g, self.unit, Fraction(1))
        assert verify_separation(g, s)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            sweep(Graph.complete(8), self.unit, Fraction(10))

    def test_weight_cap_precondition(self):
        with pytest.raises(ValueError):
            sweep(Graph.path(3), lambda v: Fraction(2), Fraction(1))

    def test_petersen(self):
        g = petersen()
        s = sweep(g, self.unit, Fraction(1))
        assert verify_separation(g, s)
        assert abs(len(s.left) - len(s.right)) <= 1

    @settings(max_examples=40)
    @given(graphs(max_n=12, max_degree=3))
    def test_unit_weight_balance(self, g):
        if g.n == 0:
            return
        s = sweep(g, self.unit, Fraction(1))
        assert verify_separation(g, s)
        assert abs(len(s.left) - len(s.right)) <= 1
        assert len(s.left) <= len(s.right)

    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs())
    def test_matches_reference_sweep(self, case):
        g, w, cap = case
        s = sweep(g, w.__getitem__, cap)
        ref = reference_sweep(g, w, cap)
        assert (s.left, s.sep, s.right) == (ref.left, ref.sep, ref.right)
