"""Dominating-set counter: branching rules, terminal counters, pivot
sharing with the CSP engine, and oracle equivalence on labeled graphs."""

import json
import random
from contextlib import redirect_stdout
from io import StringIO

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import labeled_subcubic

from smc.cli import main
from smc.counts import CountVector
from smc.csp import encode_maxcut
from smc.csp_solve import select_pivot
from smc.domset import (
    C,
    N,
    U,
    DsAudit,
    LabeledGraph,
    _chain_table,
    _chains_of,
    _core_count,
    _cycle_count,
    _needs,
    _path_count,
    branch3,
    count_ds,
    format_labeled_graph,
    parse_labeled_graph,
    select_pivot_ds,
)
from smc.graph import Graph, connected_components, format_graph, induced_subgraph
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


# -- the former list-based chain DPs, kept as the oracle for the CountVector ones


def list_chain_table(
    lg: LabeledGraph, seq: list[int], m_a: int | None, m_b: int | None
) -> dict[tuple[int, int], list[int]]:
    # states: (first membership, previous membership, previous vertex
    #          still undominated) -> counts by size
    state: dict[tuple[int, int, int], list[int]] = {}
    v0 = seq[0]
    for c in (0, 1) if lg.label[v0] != N else (0,):
        pend = int(_needs(lg.label[v0]) and not c and not (m_a or 0))
        state[(c, c, pend)] = _list_bump([], c, 1)
    for v in seq[1:]:
        nxt: dict[tuple[int, int, int], list[int]] = {}
        for (c0, cp, pend), cnt in state.items():
            for c in (0, 1) if lg.label[v] != N else (0,):
                if pend and not c:
                    continue  # the previous vertex ran out of dominators
                np = int(_needs(lg.label[v]) and not c and not cp)
                _list_merge(nxt, (c0, c, np), cnt, c)
        state = nxt
    out: dict[tuple[int, int], list[int]] = {}
    for (c0, cp, pend), cnt in state.items():
        if pend and not (m_b or 0):
            continue
        key = (c0, cp)
        out[key] = _list_add_into(out.get(key), cnt)
    return out


def _list_bump(counts: list[int], shift: int, value: int) -> list[int]:
    out = list(counts) + [0] * (shift + 1 - len(counts))
    while len(out) <= shift:
        out.append(0)
    out[shift] += value
    return out


def _list_merge(table: dict, key: tuple, counts: list[int], shift: int) -> None:
    cur = table.get(key, [])
    need = len(counts) + shift
    cur = cur + [0] * (need - len(cur))
    for i, x in enumerate(counts):
        cur[i + shift] += x
    table[key] = cur


def _list_add_into(cur: list[int] | None, counts: list[int]) -> list[int]:
    if cur is None:
        return list(counts)
    out = cur + [0] * (len(counts) - len(cur))
    for i, x in enumerate(counts):
        out[i] += x
    return out


def list_cycle_count(lg: LabeledGraph, seq: list[int]) -> CountVector:
    v0 = seq[0]
    total: list[int] = []
    for c0 in (0, 1) if lg.label[v0] != N else (0,):
        # state: (previous membership, previous pending, first pending)
        state: dict[tuple[int, int, int], list[int]] = {
            (c0, 0, int(_needs(lg.label[v0]) and not c0)): _list_bump([], c0, 1)
        }
        for pos, v in enumerate(seq[1:]):
            nxt: dict[tuple[int, int, int], list[int]] = {}
            for (cp, pend, first), cnt in state.items():
                for c in (0, 1) if lg.label[v] != N else (0,):
                    if pend and not c:
                        continue
                    np = int(_needs(lg.label[v]) and not c and not cp)
                    # only the second vertex can clear the first one early
                    nf = int(first and not c) if pos == 0 else first
                    _list_merge(nxt, (c, np, nf), cnt, c)
            state = nxt
        for (cp, pend, first), cnt in state.items():
            if pend and not c0:
                continue  # last vertex only has the first one left
            if first and not cp:
                continue  # first vertex only has the last one left
            total = _list_add_into(total, cnt)
    return CountVector(total)


def list_core_count(lg: LabeledGraph) -> CountVector:
    g = lg.graph
    cores = {v for v in g.vertices() if g.degree(v) == 3}
    assert cores, "core sweep needs at least one degree-3 vertex"
    for a in cores:
        assert lg.label[a] == U
    chains = _chains_of(g, cores)
    tables = [
        {
            (m_a, m_b): list_chain_table(lg, run, m_a, m_b)
            for m_a in (0, 1)
            for m_b in ((0, 1) if b is not None else (None,))
        }
        if run
        else None  # direct core-core edge: no internal vertices
        for (a, b, run) in chains
    ]

    # fold order: cores by BFS over chain adjacency, chains as soon as ready
    order: list[int] = []
    seen = set()
    adj: dict[int, list[int]] = {a: [] for a in cores}
    for a, b, _ in chains:
        if b is not None and b != a:
            adj[a].append(b)
            adj[b].append(a)
    for start in sorted(cores):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(adj[v]):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)

    slots = {a: 0 for a in cores}  # folded edge slots per core
    # state: frozen tuple of (core, membership, dominated) -> counts by size
    state: dict[tuple, list[int]] = {(): [1]}
    live: set[int] = set()
    folded = [False] * len(chains)

    def fold(ci: int) -> None:
        nonlocal state
        a, b, run = chains[ci]
        nxt: dict[tuple, list[int]] = {}
        for key, cnt in state.items():
            kd = dict((c, (m, d)) for c, m, d in key)
            m_a, d_a = kd[a]
            if b is not None:
                m_b, d_b = kd[b]
            if not run:
                # direct edge: each endpoint dominates the other if taken
                kd[a] = (m_a, d_a or m_b)
                kd[b] = (m_b, d_b or m_a)
                nkey = tuple((c,) + kd[c] for c in sorted(kd))
                _list_merge(nxt, nkey, cnt, 0)
            else:
                tab = tables[ci][(m_a, m_b if b is not None else None)]
                for (first_in, last_in), sub in tab.items():
                    kd2 = dict(kd)
                    kd2[a] = (m_a, d_a or first_in)
                    if b is not None:
                        mb, db = kd2[b]
                        kd2[b] = (mb, db or last_in)
                    nkey = tuple((c,) + kd2[c] for c in sorted(kd2))
                    cur = nxt.get(nkey, [])
                    prod = _list_poly_mul(cnt, sub)
                    nxt[nkey] = _list_add_into(cur, prod)
        state = nxt

    def discharge(a: int) -> None:
        nonlocal state
        nxt: dict[tuple, list[int]] = {}
        for key, cnt in state.items():
            keep = []
            ok = True
            for c, m, d in key:
                if c == a:
                    if not (m or d):
                        ok = False  # an undominated core vertex is final here
                        break
                else:
                    keep.append((c, m, d))
            if ok:
                _list_merge(nxt, tuple(keep), cnt, 0)
        state = nxt

    chain_ends = [(a, b) for a, b, _ in chains]
    for a in order:
        # introduce a
        nxt: dict[tuple, list[int]] = {}
        for key, cnt in state.items():
            for m in (0, 1):
                nkey = tuple(sorted(key + ((a, m, 0),)))
                _list_merge(nxt, nkey, cnt, m)
        state = nxt
        live.add(a)
        for ci, (ca, cb) in enumerate(chain_ends):
            if folded[ci]:
                continue
            if ca in live and (cb is None or cb in live):
                fold(ci)
                folded[ci] = True
                slots[ca] += 1
                if cb is not None:
                    slots[cb] += 1  # a chain looping back spends two slots of ca
        for c in sorted(live.copy()):
            if slots[c] == 3:
                discharge(c)
                live.discard(c)
    assert all(folded) and not live
    total: list[int] = []
    for key, cnt in state.items():
        assert key == ()
        total = _list_add_into(total, cnt)
    return CountVector(total)


def _list_poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out



@st.composite
def labeled_chains(draw, min_n: int = 1, max_n: int = 40):
    """(labels, vertex sequence) of a U/N/C chain; the DPs read only these."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seq = draw(st.permutations(range(n)))
    labels = draw(st.lists(st.sampled_from([U, N, C]), min_size=n, max_size=n))
    g = Graph(range(n), zip(seq, seq[1:]))
    return LabeledGraph(g, dict(zip(seq, labels))), seq


@st.composite
def labeled_cores(draw, max_n: int = 12):
    """A connected labeled subcubic graph with at least one degree-3 vertex."""
    lg = draw(labeled_subcubic(max_n=max_n, min_n=4))
    g = lg.graph
    assume(g.max_degree() == 3)
    top = min(v for v in g.vertices() if g.degree(v) == 3)
    comp = next(c for c in connected_components(g) if top in c)
    return LabeledGraph(induced_subgraph(g, comp), {v: lg.label[v] for v in comp})


def exact(vecs: dict) -> dict:
    return {k: tuple(v.counts if isinstance(v, CountVector) else v) for k, v in vecs.items()}


class TestChainDpOracle:
    @settings(max_examples=150, deadline=None)
    @given(labeled_chains())
    def test_chain_table_every_end_pair(self, case):
        lg, seq = case
        for m_a in (None, 0, 1):
            for m_b in (None, 0, 1):
                want = list_chain_table(lg, seq, m_a, m_b)
                if m_a is None:  # nothing reads the first bit; it is kept at 0
                    merged: dict = {}
                    for (_, cp), cnt in want.items():
                        merged[(0, cp)] = _list_add_into(merged.get((0, cp)), cnt)
                    want = merged
                assert exact(_chain_table(lg, seq, m_a, m_b)) == exact(want)

    @settings(max_examples=150, deadline=None)
    @given(labeled_chains())
    def test_path_count(self, case):
        lg, seq = case
        total: list[int] = []
        for cnt in list_chain_table(lg, seq, None, None).values():
            total = _list_add_into(total, cnt)
        assert _path_count(lg, seq).counts == tuple(total)

    @settings(max_examples=150, deadline=None)
    @given(labeled_chains(min_n=3))
    def test_cycle_count(self, case):
        lg, seq = case
        assert _cycle_count(lg, seq).counts == list_cycle_count(lg, seq).counts

    @settings(max_examples=100, deadline=None)
    @given(labeled_cores())
    def test_core_count(self, lg):
        assert _core_count(lg).counts == list_core_count(lg).counts


class TestDominationPolynomialRecurrence:
    """D(G_n) = x (D(G_n-1) + D(G_n-2) + D(G_n-3)) for paths and cycles
    (Alikhani-Peng), seeded by brute force at n = 4, 5, 6."""

    @staticmethod
    def check(make, n_top: int, route: list[str], tmp_path) -> None:
        window = [brute_domset(LabeledGraph.all_u(make(k))) for k in (4, 5, 6)]
        for k in range(7, n_top + 1):
            window = window[1:] + [(window[0] + window[1] + window[2]).shift(1)]
            if k <= 12:  # the recurrence itself, inside oracle range
                assert window[-1] == brute_domset(LabeledGraph.all_u(make(k)))
        path = tmp_path / "chain.graph"
        path.write_text(format_graph(make(n_top)))
        out = StringIO()
        with redirect_stdout(out):
            code = main(["count-ds", *route, "--json", "--input", str(path)])
        assert code == 0
        assert json.loads(out.getvalue())["counts"] == window[-1].to_list(n_top)

    @pytest.mark.parametrize("make", [Graph.path, Graph.cycle], ids=["path", "cycle"])
    def test_cli_matches_recurrence_at_1200(self, make, tmp_path):
        self.check(make, 1200, ["--subcubic"], tmp_path)

    @pytest.mark.parametrize("make", [Graph.path, Graph.cycle], ids=["path", "cycle"])
    def test_set_cover_route_matches_recurrence_at_400(self, make, tmp_path):
        # width 1 and 2: counted by the path-decomposition DP without branching
        self.check(make, 400, [], tmp_path)
