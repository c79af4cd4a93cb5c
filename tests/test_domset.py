"""Dominating-set counter: branching rules, the path-decomposition
terminal, the separator ladder it shares with the CSP engine, and oracle
equivalence on labeled graphs."""

import json
import random
from contextlib import redirect_stdout
from io import StringIO
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import add_into, labeled_subcubic

from smc import domset
from smc.cli import main
from smc.counts import CountVector, unpack
from smc.domset import (
    LABELS,
    C,
    N,
    U,
    LabeledGraph,
    _Node,
    branch3,
    count_ds,
    ds_dp,
    format_labeled_graph,
    parse_labeled_graph,
)
from smc.generators import gen_random_cubic
from smc.graph import Graph, connected_components, format_graph, induced_subgraph
from smc.measures import Audit
from smc.oracles import brute_domset
from smc.policy import apply_move, separator_case
from smc.separator import (
    PathDecomposition,
    _linear_order,
    nice_path_decomposition,
    path_decomposition,
    separate_cubic,
)
from smc.setcover import ds_to_sc, sc_count

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

    @given(labeled_subcubic(max_n=8, min_n=4))  # fewer vertices have no degree 3
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
                LabeledGraph.all_u(g), policy=policy, audit=Audit(strict=True)
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
                vec, stats = count_ds(lg, audit=Audit(strict=True))
                assert vec == brute_domset(lg)
                assert stats.branchings == 0  # one DP counts the whole component


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
            vec, _ = count_ds(lg, policy=policy, audit=Audit(strict=True))
            assert vec == want


class TestPivotSharing:
    def test_count_ds_moves_and_branches_by_the_shared_ladder(self, monkeypatch):
        # the #DS node has no pivot rule of its own: with the terminal off,
        # each ladder step moves or branches exactly as the shared
        # policy.separator_case said, the degree-<=2 drags included
        log = []

        def case(g, sep):
            log.append(("case", separator_case(g, sep)))
            return log[-1][1]

        def move(sep, act, nbrs):
            log.append(("move", act))
            apply_move(sep, act, nbrs)

        def branch(node, y, kind, depth):
            log.append(("branch", y, kind))
            return real_branch(node, y, kind, depth)

        real_branch = domset._Node.branch
        monkeypatch.setattr("smc.policy.separator_case", case)
        monkeypatch.setattr("smc.policy.apply_move", move)
        monkeypatch.setattr(domset._Node, "branch", branch)
        monkeypatch.setattr("smc.domset.PD_WIDTH_CAP", -1)
        rng = random.Random(9)
        g = random_cubic(12, rng)
        es = sorted(g.edges())
        rng.shuffle(es)
        lg = LabeledGraph.all_u(subdivide(g, es[:3]))
        vec, _ = count_ds(lg)
        assert vec == brute_domset(lg)
        for prev, (step, *rest) in zip(log, log[1:]):
            if prev[0] == "case":
                act = prev[1]
                want = ("branch", act.vertex, "branch") if act.kind == "branch" else ("move", act)
                assert (step, *rest) == want
            else:
                assert step != "move"  # every move is the ladder's
        kinds = {entry[1].kind for entry in log if entry[0] == "case"}
        assert {"drag-R", "drag-L", "drag-path-R", "drag-path-L", "branch"} <= kinds


class TestEngine:
    def test_k4_unions_branch_counts(self):
        for copies in (4, 6, 8):
            lg = LabeledGraph.all_u(k4_union(copies))
            vec_s, sep_stats = count_ds(lg, policy="separator")
            vec_l, loc_stats = count_ds(lg, policy="local")
            assert vec_s == vec_l
            assert sep_stats.branchings == 0  # every K4 has width 3: one DP each
            assert loc_stats.branchings == (3**copies - 1) // 2
            assert sep_stats.branchings < loc_stats.branchings

    def test_local_policy_skips_separators(self, no_separators):
        lg = LabeledGraph.all_u(k4_union(3))
        vec, stats = count_ds(lg, policy="local", audit=Audit(strict=True))
        assert vec == brute_domset(lg)
        assert stats.branchings == (3**3 - 1) // 2
        assert (stats.splits, stats.separator_recomputes) == (0, 0)

    def test_subdivided_cubic_policies_agree(self, ladder):
        rng = random.Random(11)
        g = random_cubic(22, rng)
        es = sorted(g.edges())
        rng.shuffle(es)
        h = subdivide(g, es[:4])  # with the DP terminal off: must branch
        audit = Audit(strict=True)
        vec_s, st_s = count_ds(LabeledGraph.all_u(h), audit=audit)
        vec_l, st_l = count_ds(LabeledGraph.all_u(h), policy="local")
        assert vec_s == vec_l
        assert 0 < st_s.branchings < st_l.branchings
        assert st_s.dp_calls > 0
        assert not audit.violations

    def test_cubic_dp_terminal(self, monkeypatch):
        rng = random.Random(3)
        g = random_cubic(22, rng)
        audit = Audit(strict=True)
        vec_s, st_s = count_ds(LabeledGraph.all_u(g), audit=audit)
        vec_l, _ = count_ds(LabeledGraph.all_u(g), policy="local")
        assert vec_s == vec_l
        assert nice_path_decomposition(g).width <= 8
        assert (st_s.branchings, st_s.dp_calls, st_s.separator_recomputes) == (0, 1, 1)
        assert [e.kind for e in audit.entries] == ["dp"]
        assert vec_s.to_list(22)[22] == 1  # V dominates V
        # below the component's width the engine separates and branches
        # until the pieces fit, and the count does not change
        monkeypatch.setattr("smc.domset.PD_WIDTH_CAP", 3)
        vec_c, st_c = count_ds(LabeledGraph.all_u(g), audit=Audit(strict=True))
        assert vec_c == vec_s
        assert st_c.branchings > 0 and st_c.separator_recomputes >= 1

    def test_moves_and_reseparation_reuse_the_wide_decomposition(self, monkeypatch):
        # separator moves and re-separations leave the graph as it is: the
        # width test sees each graph once, and every separation sweeps the
        # decomposition that test was given last
        checked, built, swept = [], [], []
        narrow = _Node.narrow

        def width_test(node, width):
            checked.append(node.lg)
            return narrow(node, width)

        def decompose(g):
            built.append(nice_path_decomposition(g))
            return built[-1]

        def separate(g, decomp):
            swept.append(decomp is built[-1])
            return separate_cubic(g, decomp)

        monkeypatch.setattr(_Node, "narrow", width_test)
        monkeypatch.setattr("smc.domset.nice_path_decomposition", decompose)
        monkeypatch.setattr("smc.domset.separate_cubic", separate)
        monkeypatch.setattr("smc.domset.PD_WIDTH_CAP", 3)
        g = random_cubic(22, random.Random(3))
        vec, stats = count_ds(LabeledGraph.all_u(g))
        assert vec == count_ds(LabeledGraph.all_u(g), policy="local")[0]
        assert checked and len({id(lg) for lg in checked}) == len(checked)
        assert len(swept) == stats.separator_recomputes > 0 and all(swept)

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

    def test_repeated_label_line(self):
        for first, second in ((N, C), (C, N), (U, U)):
            with pytest.raises(ValueError, match="second label for vertex 1"):
                parse_labeled_graph(f"graph 2 1\n0 1\nlabel 1 {first}\nlabel 1 {second}\n")

    def test_label_keyword_is_a_whole_token(self):
        # "labels" is no label line: it falls to the graph parser, which
        # rejects it as an edge line before it counts the edge lines
        with pytest.raises(ValueError, match="bad edge line 'labels 1 N'"):
            parse_labeled_graph("graph 2 1\n0 1\nlabels 1 N\n")
        with pytest.raises(ValueError, match="header promises 1 edges, found 2"):
            parse_labeled_graph("graph 3 1\n0 1\n1 2\n")
        lg = parse_labeled_graph("graph 2 1\n0 1\n  label 1 N  # spaced\n")
        assert lg.label == {0: U, 1: N}

    def test_degree3_must_stay_u(self):
        txt = format_labeled_graph(LabeledGraph.all_u(Graph.complete(4)))
        with pytest.raises(ValueError):
            parse_labeled_graph(txt + "label 0 C\n")

    def test_count_ds_rejects_degree_four(self):
        star = LabeledGraph.all_u(Graph(range(5), [(0, i) for i in range(1, 5)]))
        with pytest.raises(ValueError):
            count_ds(star)


# -- the former chain and core counters, on lists, kept as oracles for ds_dp


def _needs(lab: str) -> bool:
    return lab != C


def _chains_of(g: Graph, cores: set[int]) -> list[tuple[int, int | None, list[int]]]:
    """(core_a, core_b, internals) for each degree-<=2 run of a connected
    subcubic graph; core_b is None for a pendant run."""
    chains: list[tuple[int, int | None, list[int]]] = []
    seen_internal: set[int] = set()
    seen_core_edge: set[tuple[int, int]] = set()
    for a in sorted(cores):
        for w in g.neighbors(a):
            if w in cores:
                key = (min(a, w), max(a, w))
                if key not in seen_core_edge:
                    seen_core_edge.add(key)
                    chains.append((a, w, []))
                continue
            if w in seen_internal:
                continue
            run = [w]
            seen_internal.add(w)
            prev, cur = a, w
            stop: int | None = None
            while True:
                nxts = [u for u in g.neighbors(cur) if u != prev]
                if not nxts:
                    break  # pendant end
                prev, cur = cur, nxts[0]
                if cur in cores:
                    stop = cur
                    break
                run.append(cur)
                seen_internal.add(cur)
            chains.append((a, stop, run))
    return chains


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


def as_list(vec: CountVector) -> list[int]:
    return list(vec.counts)


class TestChainDpOracle:
    """ds_dp against the former chain, cycle and core counters."""

    @settings(max_examples=150, deadline=None)
    @given(labeled_chains())
    def test_chain_table_every_end_pair(self, case):
        # attachments a and b labeled C, either taken or not: the chain's
        # table for each pair of memberships, shifted by the pair's size
        lg, seq = case
        a, b = len(seq), len(seq) + 1
        for ends in ((), (a,), (b,), (a, b)):
            g = lg.graph.copy()
            label = dict(lg.label)
            for e in ends:
                g.add_vertex(e)
                g.add_edge(e, seq[0] if e == a else seq[-1])
                label[e] = C
            want: list[int] = []
            for m_a in ((0, 1) if a in ends else (None,)):
                for m_b in ((0, 1) if b in ends else (None,)):
                    for cnt in list_chain_table(lg, seq, m_a, m_b).values():
                        shift = (m_a or 0) + (m_b or 0)
                        want = _list_add_into(want, [0] * shift + cnt)
            order = [a][:a in ends] + seq + [b][:b in ends]
            got = ds_dp(LabeledGraph(g, label), path_decomposition(g, order))
            assert got == CountVector(want)

    @settings(max_examples=150, deadline=None)
    @given(labeled_chains())
    def test_path_count(self, case):
        lg, seq = case
        total: list[int] = []
        for cnt in list_chain_table(lg, seq, None, None).values():
            total = _list_add_into(total, cnt)
        decomp = path_decomposition(lg.graph, seq)
        assert decomp.width == min(1, len(seq) - 1)
        assert as_list(ds_dp(lg, decomp)) == total

    @settings(max_examples=150, deadline=None)
    @given(labeled_chains(min_n=3))
    def test_cycle_count(self, case):
        lg, seq = case
        lg.graph.add_edge(seq[-1], seq[0])
        decomp = path_decomposition(lg.graph, _linear_order(lg.graph))
        assert decomp.width == 2
        assert ds_dp(lg, decomp).counts == list_cycle_count(lg, seq).counts

    @settings(max_examples=100, deadline=None)
    @given(labeled_cores())
    def test_core_count(self, lg):
        decomp = nice_path_decomposition(lg.graph)
        assert ds_dp(lg, decomp).counts == list_core_count(lg).counts


class TestDsDp:
    @settings(max_examples=200, deadline=None)
    @given(labeled_subcubic(max_n=12, min_n=0), st.randoms(use_true_random=False))
    def test_matches_brute_domset(self, lg, rng):
        # possibly disconnected; any vertex order gives a valid decomposition
        want = brute_domset(lg)
        order = lg.graph.vertices()
        rng.shuffle(order)
        for decomp in (nice_path_decomposition(lg.graph), path_decomposition(lg.graph, order)):
            assert ds_dp(lg, decomp) == want

    @pytest.mark.parametrize("make", [Graph.path, Graph.cycle], ids=["path", "cycle"])
    def test_linear_order_width_on_shuffled_ids(self, make):
        rng = random.Random(4)
        g = make(40)
        ids = list(range(1000, 1040))
        rng.shuffle(ids)
        h = Graph(ids, [(ids[u], ids[v]) for u, v in g.edges()])
        both = Graph(ids + [5, 6, 7], h.edges() + [(5, 6)])  # plus an edge and an isolated vertex
        for graph in (h, both):
            order = _linear_order(graph)
            assert sorted(order) == graph.vertices()
            assert path_decomposition(graph, order).width == (1 if make is Graph.path else 2)


# -- the former CountVector ds_dp, kept as an oracle for the packed sweep


def cv_ds_sweep(lg: LabeledGraph, decomp) -> CountVector:
    """ds_dp with a CountVector per state, merged by ``add_into``."""
    adj = lg.graph.neighbor_sets()
    slot: dict[int, int] = {}
    states = {0: CountVector.one()}
    prev: frozenset[int] = frozenset()
    for bag in [*decomp.bags, frozenset()]:
        for v in prev - bag:
            b = slot.pop(v)
            new: dict[int, CountVector] = {}
            for s, acc in states.items():
                if not s & b << 1:
                    add_into(new, s & ~(3 * b), acc)
            states = new
        for v in bag - prev:
            used = 3 * sum(slot.values())
            slot[v] = b = ~used & (used + 1)
            nb = sum(slot.get(u, 0) for u in adj[v])
            lab = lg.label[v]
            new = {}
            ins: dict[int, CountVector] = {}
            for s, acc in states.items():
                if lab != N:
                    add_into(ins, (s & ~(nb << 1)) | b, acc)
                add_into(new, s | b << 1 if lab != C and not s & nb else s, acc)
            for s, acc in ins.items():
                new[s] = acc.shift(1)
            states = new
        prev = bag
    return states.get(0, CountVector.zero())


def thinned_cubic(n: int, seed: int) -> LabeledGraph:
    """gen_random_cubic(n, seed) without n/10 of its edges, its vertices of
    degree <= 2 labelled U, N or C at random."""
    rng = random.Random(seed)
    g = gen_random_cubic(n, seed)
    for u, v in rng.sample(g.edges(), n // 10):
        g.remove_edge(u, v)
    lg = LabeledGraph.all_u(g)
    for v in g.vertices():
        if g.degree(v) < 3:
            lg.label[v] = rng.choice(LABELS)
    lg.check()
    return lg


def packed_sweep_calls(monkeypatch) -> list[int]:
    """The slot width of each ds_dp call that unpacks a packed sweep."""
    widths: list[int] = []

    def spy(packed, width):
        widths.append(width)
        return unpack(packed, width)

    monkeypatch.setattr(domset, "unpack", spy)
    return widths


class TestPackedDsDp:
    """ds_dp's packed sweep against the former CountVector sweep on the
    same decomposition."""

    def test_labelled_graphs_at_widths_3_to_9(self, monkeypatch):
        widths = packed_sweep_calls(monkeypatch)
        seen: dict[int, int] = {}
        for n in range(8, 60, 4):
            for seed in range(3):
                lg = thinned_cubic(n, seed)
                decomp = nice_path_decomposition(lg.graph)
                if 3 <= decomp.width <= 9 and seen.get(decomp.width, 0) < 2:
                    seen[decomp.width] = seen.get(decomp.width, 0) + 1
                    assert ds_dp(lg, decomp).counts == cv_ds_sweep(lg, decomp).counts
        assert sorted(seen) == list(range(3, 10))
        assert len(widths) == sum(seen.values())

    @settings(max_examples=150, deadline=None)
    @given(labeled_subcubic(max_n=12, min_n=4), st.randoms(use_true_random=False))
    def test_matches_former_sweep_along_any_order(self, lg, rng):
        order = lg.graph.vertices()
        rng.shuffle(order)
        decomp = path_decomposition(lg.graph, order)
        assert ds_dp(lg, decomp).counts == cv_ds_sweep(lg, decomp).counts

    def test_all_n_bag(self, monkeypatch):
        # four N vertices, each dominated only by its U or C partner; the
        # order introduces the N vertices first, into one bag of their own
        widths = packed_sweep_calls(monkeypatch)
        g = Graph(range(8), [(i, i + 4) for i in range(4)])
        lg = LabeledGraph(g, {0: N, 1: N, 2: N, 3: N, 4: U, 5: U, 6: C, 7: C})
        decomp = path_decomposition(g, list(range(8)))
        assert frozenset({0, 1, 2, 3}) in decomp.bags and decomp.width == 4
        got = ds_dp(lg, decomp)
        assert got.counts == cv_ds_sweep(lg, decomp).counts == (0, 0, 0, 0, 1)
        assert got == brute_domset(lg) and widths == [3]  # C(4, 2) = 6 needs 3 bits

    @pytest.mark.parametrize("k", [4, 6, 11])
    def test_free_vertices_fill_the_slot(self, k):
        """k C vertices in one bag: every subset counts, so coefficient
        ⌊k/2⌋ is C(k, ⌊k/2⌋), which needs every bit of the slot width."""
        lg = LabeledGraph(Graph(range(k)), dict.fromkeys(range(k), C))
        decomp = PathDecomposition([frozenset(range(i + 1)) for i in range(k)])
        assert decomp.width == k - 1
        got = ds_dp(lg, decomp)
        assert got.counts == cv_ds_sweep(lg, decomp).counts
        assert got.counts == tuple(comb(k, j) for j in range(k + 1))

    @pytest.mark.parametrize("make", [Graph.path, Graph.cycle], ids=["path", "cycle"])
    def test_walks_of_width_2_keep_count_vectors(self, make, monkeypatch):
        widths = packed_sweep_calls(monkeypatch)
        lg = LabeledGraph.all_u(make(60))
        for v in range(0, 60, 4):
            lg.label[v] = N
        for v in range(1, 60, 7):
            lg.label[v] = C
        decomp = path_decomposition(lg.graph, _linear_order(lg.graph))
        assert decomp.width <= 2
        assert ds_dp(lg, decomp).counts == cv_ds_sweep(lg, decomp).counts
        assert widths == []


class TestCrossEngine:
    @pytest.mark.parametrize("n", [26, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_count_ds_matches_set_cover_route(self, n, seed):
        g = gen_random_cubic(n, seed)
        vec, stats = count_ds(LabeledGraph.all_u(g))
        assert vec == sc_count(ds_to_sc(g))[0]
        assert vec.to_list(n)[n] == 1


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
