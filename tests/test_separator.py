import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import bags, graphs

from smc.generators import gen_random_cubic
from smc.graph import Graph
from smc.oracles import brute_pathwidth
from smc.setcover import ds_to_sc
from smc.separator import (
    PD_STARTS,
    PathDecomposition,
    Separation,
    _greedy_layout,
    nice_path_decomposition,
    path_decomposition,
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
        assert nice_path_decomposition(Graph()).steps == []

    @settings(max_examples=40)
    @given(graphs(max_n=10))
    def test_near_exact_small(self, g):
        if g.n == 0:
            return
        d = nice_path_decomposition(g)
        d.validate(g)
        assert len(d.steps) == 2 * g.n
        assert d.width <= brute_pathwidth(g) + 2

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=40, max_degree=6))
    def test_bags_match_reference(self, g):
        assert bags(nice_path_decomposition(g)) == reference_bags(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_last_bag_is_forgotten_by_id(self, seed):
        g = relabeled(gen_random_cubic(28, seed), seed)
        order = g.vertices()
        random.Random(seed).shuffle(order)
        decomp = path_decomposition(g, order)
        last = bags(decomp)[-1]
        assert len(last) > 1 and decomp.steps[-len(last) - 1] == (order[-1], True)
        assert decomp.steps[-len(last):] == [(v, False) for v in sorted(last)]

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

    @pytest.mark.parametrize("g", [
        *(h for n in (10, 16, 18, 24)
          for h in (gen_random_cubic(n, n), relabeled(gen_random_cubic(n, n + 1), n))),
        Graph(range(12), [(3, 4), (4, 5), (5, 3), (7, 9), (9, 11), (10, 11)]),
    ])
    def test_layout_stop_drops_exactly_the_starts_that_cannot_win(self, g):
        adj = {v: g.neighbors(v) for v in g.vertices()}
        for first in g.vertices():
            full = _greedy_layout(adj, first)
            for stop in range(full[1] + 3):
                assert _greedy_layout(adj, first, stop) == (None if full[1] >= stop else full)

    def test_later_starts_stop_at_the_best_width_so_far(self, monkeypatch):
        g = relabeled(gen_random_cubic(24, 5), 5)  # start widths 6, 6, 5, ..., 5
        calls, results = [], []

        def record(adj, first, stop=None, fresh=None):
            calls.append((first, stop))
            results.append(_greedy_layout(adj, first, stop, fresh))
            return results[-1]

        monkeypatch.setattr("smc.separator._greedy_layout", record)
        nice_path_decomposition(g)
        assert [first for first, _ in calls] == g.vertices()[:PD_STARTS]
        assert calls[0][1] is None
        assert any(result is not None for result in results[1:])
        best = results[0][1]
        for (_, stop), result in zip(calls[1:], results[1:]):
            assert stop == best
            if result is not None:
                best = result[1]

    @pytest.mark.parametrize("g", [
        *(ds_to_sc(gen_random_cubic(n, seed)).incidence for n in (16, 18) for seed in (0, 1)),
        *(gen_random_cubic(n, 0) for n in (28, 44)),
    ])
    def test_bags_match_reference_on_benchmark_shapes(self, g):
        """The incidence graphs of sc-cubic (max degree 4) and the graphs of csp-cubic."""
        assert bags(nice_path_decomposition(g)) == reference_bags(g)


class TestValidate:
    """One rejection per rule; each must raise ValueError."""

    G = Graph.path(3)  # 0-1-2
    NICE = [(0, True), (1, True), (0, False), (2, True), (1, False), (2, False)]

    @staticmethod
    def pd(*steps: tuple[int, bool]) -> PathDecomposition:
        return PathDecomposition(list(steps))

    def test_accepts_nice_decomposition(self):
        self.pd(*self.NICE).validate(self.G)

    def test_non_contiguous_interval(self):
        # 0 comes back after it was forgotten: introduced twice
        d = self.pd((0, True), (1, True), (0, False), (0, True), (2, True),
                    (0, False), (1, False), (2, False))
        with pytest.raises(ValueError, match="introduced twice"):
            d.validate(self.G)

    def test_forgotten_before_introduced(self):
        d = self.pd((0, True), (1, False), (1, True), (0, False), (2, True),
                    (1, False), (2, False))
        with pytest.raises(ValueError, match="forgotten while not in the bag"):
            d.validate(self.G)

    def test_never_forgotten(self):
        with pytest.raises(ValueError, match="never forgotten"):
            self.pd(*self.NICE[:-1]).validate(self.G)

    def test_missing_vertex(self):
        with pytest.raises(ValueError, match="never introduced"):
            self.pd((0, True), (1, True), (0, False), (1, False)).validate(self.G)

    def test_uncovered_edge(self):
        d = self.pd((0, True), (1, True), (1, False), (2, True), (0, False), (2, False))
        with pytest.raises(ValueError, match=r"edge \(1,2\)"):
            d.validate(self.G)

    def test_foreign_vertex(self):
        with pytest.raises(ValueError, match="not in the graph"):
            self.pd(*self.NICE, (7, True), (7, False)).validate(self.G)


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
        for bag in bags(nice_path_decomposition(g)):
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
