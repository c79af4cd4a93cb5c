"""Engine tests: exact optima with witnesses, pivot selection, policies,
stats counters, and the runtime measure audit.  The separator ladder is
tested with the sweep terminal switched off (the ``ladder`` fixture),
since at the shipped width cap the cubic test graphs are swept at their
first branch."""

import random
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from strategies import csp_instances

from smc.csp import encode_maxcut, evaluate, zero_instance
from smc.csp_solve import _brute_best, _simplify_action, solve
from smc.generators import csp_on_graph, gen_random_csp, gen_random_cubic
from smc.graph import Graph
from smc.measures import Audit, csp_snapshot
from smc.oracles import brute_max2csp
from smc.policy import PivotAction, separator_case
from smc.separator import (
    Separation,
    nice_path_decomposition,
    path_decomposition,
    separate_cubic,
    trivial_separation,
)
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


def two_random(n: int, m: int, seed: int) -> Graph:
    """Two disjoint random graphs of n vertices and m edges each."""
    rng = random.Random(seed)
    g = Graph(range(2 * n))
    for base in (0, n):
        pairs = [(base + u, base + v) for u in range(n) for v in range(u + 1, n)]
        for u, v in rng.sample(pairs, m):
            g.add_edge(u, v)
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


def spider(legs: int, length: int) -> Graph:
    """Centre 0 with `legs` paths of `length` vertices hanging off it."""
    g = Graph(range(1 + legs * length))
    for leg in range(legs):
        prev = 0
        for k in range(length):
            v = 1 + leg * length + k
            g.add_edge(prev, v)
            prev = v
    return g


def grid(rows: int, cols: int) -> Graph:
    g = Graph(range(rows * cols))
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                g.add_edge(v, v + 1)
            if i + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def exhaustive_best(inst):
    """Reference optimum: plain depth-first enumeration, ascending colours
    over sorted vertices, strict improvement only, so the witness is the
    lexicographically smallest optimum."""
    vs = inst.graph.vertices()
    best_score = None
    best_asg = {}
    asg = {}

    def go(idx, acc):
        nonlocal best_score, best_asg
        if idx == len(vs):
            if best_score is None or acc > best_score:
                best_score, best_asg = acc, dict(asg)
            return
        v = vs[idx]
        base = inst.s_v[v]
        for c in range(inst.r):
            gain = base[c]
            for u in inst.graph.neighbors(v):
                if u in asg:  # so u < v
                    gain += inst.s_e[(u, v)][asg[u] * inst.r + c]
            asg[v] = c
            go(idx + 1, acc + gain)
        del asg[v]

    go(0, inst.s_nil)
    return best_score, best_asg


@st.composite
def sweep_cases(draw):
    """A Max 2-CSP instance on a possibly disconnected graph of n ≤ 8 and
    degree ≤ 5, with one of its nice path decompositions: the greedy one
    or the one along a random vertex order."""
    inst = draw(st.one_of(csp_instances(max_n=8, rs=(2, 3, 4), lo=0, hi=0),
                          csp_instances(max_n=8, rs=(2, 3, 4), lo=-1, hi=1),
                          csp_instances(max_n=8, rs=(2, 3, 4), lo=-3, hi=3)))
    g = inst.graph
    for u, v in g.edges():
        if g.degree(u) > 5 or g.degree(v) > 5:
            g.remove_edge(u, v)
            del inst.s_e[(u, v)]
    if draw(st.booleans()):
        return inst, nice_path_decomposition(g)
    return inst, path_decomposition(g, draw(st.permutations(g.vertices())))


class TestBruteTerminal:
    """``_brute_best`` is the max-plus path-decomposition sweep."""

    @settings(max_examples=300, deadline=None)
    @given(sweep_cases())
    def test_matches_exhaustive_score_and_witness(self, case):
        inst, decomp = case
        score, witness = _brute_best(inst, decomp)
        assert score == exhaustive_best(inst)[0]
        assert evaluate(inst, witness) == score

    def test_ties_go_to_the_smallest_colour(self):
        inst = zero_instance(3, Graph.path(3))
        score, witness = _brute_best(inst, nice_path_decomposition(inst.graph))
        assert (score, witness) == (0, {0: 0, 1: 0, 2: 0})


class TestDepth:
    """Instances that reduce without branching must not recurse once per
    reduction; these run at the interpreter's default recursion limit."""

    @pytest.mark.parametrize("policy", ["separator", "local"])
    def test_spider_of_degree_four(self, policy):
        g = spider(4, 400)  # 1601 vertices, the centre has degree 4
        inst = encode_maxcut(g)
        sol, stats = solve(inst, policy=policy)
        assert sol.score == g.m  # a tree is bipartite
        assert evaluate(inst, sol.assignment) == g.m
        assert stats.branchings == 0


class TestSolveExamples:
    def test_k4_maxcut(self):
        inst = encode_maxcut(Graph.complete(4))
        sol, stats = solve(inst)
        assert sol.score == 4
        assert evaluate(inst, sol.assignment) == 4
        assert stats.leaves >= 1

    def test_petersen_maxcut(self, ladder):
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

    def test_component_split_gets_one_terminal_per_piece(self):
        split_sol, split_stats = solve(encode_maxcut(two_k4()))
        conn_sol, conn_stats = solve(encode_maxcut(hypercube3()))
        assert split_sol.score == 8
        assert conn_sol.score == 12  # Q₃ is bipartite
        # each K4 is swept on its own; Q₃ is one sweep
        assert (split_stats.leaves, split_stats.branchings) == (2, 0)
        assert (conn_stats.leaves, conn_stats.branchings) == (1, 0)

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
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_policies_agree_on_score(self, ladder, inst):
        sep_sol, _ = solve(inst, policy="separator")
        loc_sol, _ = solve(inst, policy="local")
        assert sep_sol.score == loc_sol.score

    def test_deterministic(self):
        inst = encode_maxcut(petersen())
        a = solve(inst)
        b = solve(inst)
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
        assert _simplify_action(g, sep) is None
        assert separator_case(g, sep) == PivotAction("drag-R", 0)

    def test_drag_left_when_no_right_neighbors(self):
        g = Graph.complete(4)
        sep = Separation(left={3}, sep={0, 1, 2}, right=set())
        assert _simplify_action(g, sep) is None
        assert separator_case(g, sep) == PivotAction("drag-L", 0)

    def test_rotation_when_right_heavy(self):
        g, sep = _rotation_graph()
        assert _simplify_action(g, sep) is None
        act = separator_case(g, sep)
        assert act == PivotAction("rotate", 0, partner=3)

    def test_two_right_branches(self):
        g, sep = _rotation_graph()
        swapped = Separation(left=sep.right, sep=sep.sep, right=sep.left)
        assert _simplify_action(g, swapped) is None
        act = separator_case(g, swapped)
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
        act = _simplify_action(g, sep)
        assert act == PivotAction("reduceII", 0, partner=3)

    def test_empty_separator_rejected(self):
        g = Graph.complete(4)
        sep = trivial_separation(g.vertices())
        assert _simplify_action(g, sep) is None
        with pytest.raises(ValueError):
            separator_case(g, sep)


class TestAudit:
    def test_random_cubic_runs_clean(self, ladder):
        rng = random.Random(20260814)
        for _ in range(6):
            g = random_cubic(16, rng)
            inst = encode_maxcut(g)
            audit = Audit()
            sol, _ = solve(inst, audit=audit)
            assert sol.score == brute_max2csp(inst).score
            assert audit.violations == []
            assert all(e.checks.get("eta", True) for e in audit.entries if e.hard)
            assert all("mu" in e.numbers for e in audit.entries), "audit runs record μ"

    def test_terminal_is_one_hard_entry(self):
        inst = csp_on_graph(gen_random_cubic(24, 0), 2, 0)
        audit = Audit(strict=True)
        _, stats = solve(inst, audit=audit)
        terminals = [e for e in audit.entries if e.kind == "terminal"]
        assert len(terminals) == stats.leaves == 1
        assert terminals[0].hard and terminals[0].numbers["mu"][0] > 0
        assert terminals[0].numbers["mu"][1] == () == terminals[0].numbers["eta"][1]

    def test_strict_mode_raises(self):
        g = Graph.complete(4)
        parent = Separation(left=set(), sep={0, 1, 2}, right={3})
        child = Separation(left=set(), sep={0, 1, 2, 3}, right=set())
        audit = Audit(strict=True)
        w = CspWeights.published()
        with pytest.raises(AssertionError):
            # growing the separator raises η: not a legal step
            audit.step("drag-R", 2, csp_snapshot(g, parent, w), [csp_snapshot(g, child, w)],
                       falls=("eta",))

    def test_nonstrict_mode_collects(self):
        g = Graph.complete(4)
        parent = Separation(left=set(), sep={0, 1, 2}, right={3})
        child = Separation(left=set(), sep={0, 1, 2, 3}, right=set())
        audit = Audit()
        w = CspWeights.published()
        audit.step("drag-R", 2, csp_snapshot(g, parent, w), [csp_snapshot(g, child, w)],
                   falls=("eta",))
        assert len(audit.violations) == 1
        assert not audit.violations[0].checks["eta"]

    def test_soft_steps_never_violate(self):
        g = Graph.complete(4)
        sep = trivial_separation(g.vertices())
        audit = Audit(strict=True)
        w = CspWeights.published()
        # re-separation may raise η and μ freely: logged, not checked
        audit.step("reseparate", 2, csp_snapshot(g, sep, w),
                   [csp_snapshot(g, Separation(set(), {0, 1, 2}, {3}), w)], hard=False)
        assert audit.violations == []


class TestAuditIsPassive:
    @pytest.mark.parametrize("r,n", [(2, 24), (3, 16)])
    def test_same_solution_and_stats(self, r, n, ladder):
        for seed in range(3):
            inst = csp_on_graph(gen_random_cubic(n, seed), r, seed)
            before = inst.copy()
            plain, plain_stats = solve(inst)
            audited, audited_stats = solve(inst, audit=Audit())
            assert inst == before, "solve must not consume the caller's instance"
            assert audited == plain
            assert asdict(audited_stats) == asdict(plain_stats)


class TestStats:
    def test_connected_terminal_count(self):
        inst = encode_maxcut(hypercube3())
        _, stats = solve(inst)
        assert stats.leaves == 1
        assert stats.branchings == 0
        assert stats.separator_recomputes == 1

    def test_local_policy_takes_no_audit(self):
        # the local policy runs no step the audit could record
        with pytest.raises(ValueError):
            solve(encode_maxcut(petersen()), policy="local", audit=Audit())

    def test_local_policy_skips_separators(self, no_separators):
        inst = encode_maxcut(petersen())
        sol, stats = solve(inst, policy="local")
        assert sol.score == 12
        assert stats.separator_recomputes == 0
        # disconnected, with degree-4 vertices: still no split and no sweep
        inst = encode_maxcut(two_random(5, 10, 0))  # K5 ⊔ K5
        sol, stats = solve(inst, policy="local")
        assert sol.score == evaluate(inst, sol.assignment) == 12
        assert stats.branchings > 0
        assert (stats.splits, stats.dp_calls, stats.separator_recomputes) == (0, 0, 0)


class TestGeneralPhase:
    """Above max degree 3 the shared loop branches on a maximum-degree
    vertex, and splits a disconnected node at entry as it does any other."""

    def test_disconnected_node_splits_on_the_ladder(self, ladder):
        sol, stats = solve(encode_maxcut(two_random(5, 10, 0)))  # K5 ⊔ K5
        assert sol.score == 12
        assert (stats.branchings, stats.stalls, stats.splits) == (6, 4, 1)
        _, alone = solve(encode_maxcut(Graph.complete(5)))
        assert stats.branchings == 2 * alone.branchings

    def test_disconnected_node_splits_at_the_cap(self):
        _, stats = solve(encode_maxcut(two_random(5, 10, 0)))
        assert (stats.splits, stats.dp_calls, stats.branchings) == (1, 2, 0)

    @pytest.mark.parametrize("cap", [-1, 8])
    def test_random_instances_audit_clean(self, cap, monkeypatch):
        monkeypatch.setattr("smc.csp_solve.PD_WIDTH_CAP", cap)
        recorded = 0
        for n in (12, 18, 24):
            for m in (3 * n // 2, 2 * n, 5 * n // 2):
                inst = gen_random_csp(n, m, 2, n + m)
                audit = Audit(strict=True)
                sol, _ = solve(inst, audit=audit)
                recorded += len(audit.entries)
                assert evaluate(inst, sol.assignment) == sol.score
                assert solve(inst, policy="local")[0].score == sol.score
        assert recorded > 0  # the subcubic steps below the general phase

    @pytest.mark.parametrize("seed", range(4))
    def test_disconnected_instances_match_brute_force(self, seed, ladder):
        inst = csp_on_graph(two_random(7, 14, seed), 2, seed)
        assert inst.graph.max_degree() > 3
        sol, stats = solve(inst)
        local, _ = solve(inst, policy="local")
        assert sol.score == local.score == brute_max2csp(inst).score
        assert evaluate(inst, sol.assignment) == sol.score
        assert stats.splits >= 1


def _cubic_cases():
    return [(r, n, seed) for r, ns in ((2, (24, 44)), (3, (16, 28)))
            for n in ns for seed in range(3)]


class TestWidthCap:
    """At the shipped cap the benchmark's cubic sizes are swept right after
    the root separates, before any ladder move; the ladder and the local
    policy find the same optima."""

    @pytest.mark.parametrize("r,n", [(2, 44), (3, 28)])
    def test_no_branchings_at_benchmark_sizes(self, r, n):
        for seed in range(3):
            inst = csp_on_graph(gen_random_cubic(n, seed), r, seed)
            sol, stats = solve(inst)
            assert (stats.branchings, stats.leaves) == (0, 1)
            assert (stats.separator_recomputes, stats.max_depth) == (1, 0)
            assert evaluate(inst, sol.assignment) == sol.score

    @pytest.mark.parametrize("r,n", [(2, 44), (3, 28)])
    def test_one_decomposition_separates_and_sweeps(self, r, n, monkeypatch):
        # the root separates by sweeping a decomposition and, narrow, is
        # swept over the same one before the case ladder runs
        built, seps, cases = [], [], []

        def decompose(g):
            built.append(nice_path_decomposition(g))
            return built[-1]

        def separate(g, decomp):
            sep = separate_cubic(g, decomp)
            seps.append(frozenset(sep.sep))  # the engine moves sep in place
            return sep

        monkeypatch.setattr("smc.csp_solve.nice_path_decomposition", decompose)
        monkeypatch.setattr("smc.csp_solve.separate_cubic", separate)
        monkeypatch.setattr("smc.policy.separator_case", cases.append)
        for seed in range(3):
            built.clear()
            seps.clear()
            solve(csp_on_graph(gen_random_cubic(n, seed), r, seed))
            assert len(built) == len(seps) == 1 and not cases
            assert seps[0] in built[0].bags

    @pytest.mark.parametrize("r,n,seed", _cubic_cases())
    def test_cap_ladder_and_local_agree(self, r, n, seed, monkeypatch):
        inst = csp_on_graph(gen_random_cubic(n, seed), r, seed)
        at_cap, _ = solve(inst)
        local, _ = solve(inst, policy="local")
        monkeypatch.setattr("smc.csp_solve.PD_WIDTH_CAP", -1)
        on_ladder, ladder_stats = solve(inst)
        assert at_cap.score == on_ladder.score == local.score
        assert ladder_stats.branchings > 0
        for sol in (at_cap, on_ladder, local):
            assert evaluate(inst, sol.assignment) == sol.score

    def test_grid_of_degree_four(self):
        # 4×30: too wide to brute-force, degree 4, bipartite, pathwidth 4;
        # the local policy needs about 4^(k/2) branchings on 4×k, so it is
        # checked on 4×10
        for cols, policies in ((10, ("separator", "local")), (30, ("separator",))):
            g = grid(4, cols)
            inst = encode_maxcut(g)
            for policy in policies:
                sol, stats = solve(inst, policy=policy)
                assert sol.score == g.m
                assert evaluate(inst, sol.assignment) == g.m
                if policy == "separator":
                    assert stats.branchings == 0
