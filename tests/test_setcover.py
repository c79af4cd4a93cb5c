"""Set-cover counting: incidence plumbing, the path-decomposition DP with
annotation resolution, the subcubic separator ladder, oracle equivalence,
and the runtime measure audit.  The ladder is tested with the DP terminal
switched off (the ``ladder`` fixture), since at the shipped width cap
small instances never reach it."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import graphs, sc_instances

import smc.setcover
from smc.counts import CountVector
from smc.domset import LabeledGraph
from smc.graph import Graph
from smc.oracles import brute_domset, brute_setcover
from smc.weights import ScWeights
from smc.measures import Audit, sc_side_weights
from smc.policy import Stats
from smc.separator import Separation, nice_path_decomposition, trivial_separation
from smc.setcover import (
    PD_WIDTH_CAP,
    Annotation,
    ScIncidence,
    _find_duplicate,
    _Node,
    ds_to_sc,
    format_sc,
    parse_sc,
    sc_count,
    sc_dp,
)


def inst_from_sets(sets: list[set[int]], ne: int) -> ScIncidence:
    inc = Graph(range(ne + len(sets)))
    for j, members in enumerate(sets):
        for e in members:
            inc.add_edge(e, ne + j)
    return ScIncidence(
        inc,
        set(range(ne, ne + len(sets))),
        sep=trivial_separation(range(ne + len(sets))),
    )


def dp(inst: ScIncidence) -> CountVector:
    return sc_dp(inst, nice_path_decomposition(inst.active_graph()))


def annotated(inst: ScIncidence, steps: int) -> ScIncidence:
    """A copy after up to `steps` of the engine's annotation steps: the
    smallest active vertex of degree <= 1, else a duplicate of degree 2."""
    inst = inst.copy()
    for _ in range(steps):
        low = [v for v in inst.active_vertices() if inst.active_degree(v) <= 1]
        v = min(low) if low else _find_duplicate(inst)
        if v is None:
            break
        inst.annotation_log.append(Annotation(v, tuple(inst.active_neighbors(v))))
        inst.annotated.add(v)
        inst.sep.discard(v)
    return inst


def random_cubic(n: int, rng: random.Random) -> Graph:
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


class TestTextFormat:
    SAMPLE = "setcover 3 2\nset 0 0 1\nset 1 2\n"

    def test_round_trip(self):
        inst = parse_sc(self.SAMPLE)
        assert format_sc(inst) == self.SAMPLE
        assert inst.set_ids == {3, 4}
        assert sorted(inst.incidence.neighbors(3)) == [0, 1]

    def test_comments_and_blank_lines(self):
        inst = parse_sc("# covers\nsetcover 1 1\n\nset 0 0  # the lot\n")
        assert sorted(inst.incidence.neighbors(1)) == [0]

    @pytest.mark.parametrize(
        "text",
        [
            "setcover 1\nset 0 0\n",  # short header
            "graph 1 1\nset 0 0\n",  # wrong keyword
            "setcover 1 1\nset 0 5\n",  # element out of range
            "setcover 1 2\nset 0 0\nset 0 0\n",  # repeated set id
            "setcover 1 2\nset 0 0\n",  # missing set line
            "setcover 1 1\nrow 0 0\n",  # bad record
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_sc(text)

    def test_format_refuses_annotated(self):
        inst = parse_sc(self.SAMPLE)
        inst.annotated.add(0)
        with pytest.raises(ValueError):
            format_sc(inst)


class TestDsToSc:
    def test_k3_structure(self):
        inst = ds_to_sc(Graph.complete(3))
        assert all(inst.incidence.degree(e) == 3 for e in (0, 1, 2))
        assert all(len(inst.incidence.neighbors(s)) == 3 for s in (3, 4, 5))

    def test_p3_closed_neighborhoods(self):
        inst = ds_to_sc(Graph.path(3))  # 0-1-2
        members = {s: set(inst.incidence.neighbors(s)) for s in inst.set_ids}
        assert members == {3: {0, 1}, 4: {0, 1, 2}, 5: {1, 2}}

    def test_cardinality_bijection_small(self):
        for n in range(1, 7):
            g = Graph.cycle(n) if n >= 3 else Graph.path(n)
            vec, _ = sc_count(ds_to_sc(g))
            assert vec == brute_domset(LabeledGraph.all_u(g))


class TestCountExamples:
    def test_two_singleton_sets(self):
        vec, _ = sc_count(inst_from_sets([{0}, {0}], 1))
        assert vec.to_list(2) == [0, 2, 1]

    def test_single_covering_set(self):
        vec, _ = sc_count(inst_from_sets([{0, 1}], 2))
        assert vec.to_list(1) == [0, 1]

    def test_empty_instance(self):
        vec, _ = sc_count(inst_from_sets([], 0))
        assert vec.to_list(0) == [1]

    def test_empty_set_is_a_free_choice(self):
        vec, _ = sc_count(inst_from_sets([set(), {0}], 1))
        assert vec.to_list(2) == [0, 1, 1]

    def test_isolated_element_kills_all_covers(self):
        vec, _ = sc_count(inst_from_sets([{0}], 2))
        assert vec == CountVector.zero()

    def test_k4_translation(self):
        vec, _ = sc_count(ds_to_sc(Graph.complete(4)))
        assert vec.to_list(4) == [0, 4, 6, 4, 1]

    def test_p3_translation(self):
        vec, _ = sc_count(ds_to_sc(Graph.path(3)))
        assert vec.to_list(3) == [0, 1, 3, 1]

    def test_components_convolve(self):
        g = Graph(range(8))
        for base in (0, 4):
            for u in range(4):
                for v in range(u + 1, 4):
                    g.add_edge(base + u, base + v)
        vec, stats = sc_count(ds_to_sc(g))
        one_k4 = brute_domset(LabeledGraph.all_u(Graph.complete(4)))
        assert vec == one_k4.convolve(one_k4)
        assert stats.splits >= 1

    def test_one_large_set_annotates_without_branching(self):
        vec, stats = sc_count(inst_from_sets([set(range(1500))], 1500))
        assert vec.to_list(1) == [0, 1]
        assert (stats.annotations, stats.branchings) == (1501, 0)

    def test_duplicate_sets_merge(self):
        # 4-cycle incidence: two identical sets {0,1}; either covers U
        vec, _ = sc_count(inst_from_sets([{0, 1}, {0, 1}], 2))
        assert vec.to_list(2) == [0, 2, 1]


class TestScDp:
    def test_alternating_path_of_four(self):
        # e0-s0-e1-s1 with s0={e0,e1}, s1={e1}
        inst = inst_from_sets([{0, 1}, {1}], 2)
        vec = dp(inst)
        assert vec.to_list(2) == [0, 1, 1]
        assert vec == brute_setcover(inst)

    def test_live_cycle(self):
        # 6-cycle: three sets chained around three elements
        inst = inst_from_sets([{0, 1}, {1, 2}, {2, 0}], 3)
        assert dp(inst) == brute_setcover(inst)

    def test_any_degree(self):
        # an element in three sets; a set and an element of degree 4
        for sets, ne in (([{0}, {0}, {0}], 1),
                         ([{0, 1, 2, 3}, {0, 1}, {2, 3}, {1, 2}, {0, 3}, {0, 2}], 4)):
            inst = inst_from_sets(sets, ne)
            assert dp(inst) == brute_setcover(inst)

    def test_empty(self):
        assert dp(inst_from_sets([], 0)).to_list(0) == [1]

    @settings(max_examples=150, deadline=None)
    @given(sc_instances(max_sets=8, max_elems=8), st.integers(0, 20))
    def test_matches_brute_setcover_after_annotations(self, inst, steps):
        assert dp(annotated(inst, steps)) == brute_setcover(inst)

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=9), st.integers(0, 20))
    def test_translation_matches_brute_domset_after_annotations(self, g, steps):
        inst = annotated(ds_to_sc(g), steps)
        assert dp(inst) == brute_domset(LabeledGraph.all_u(g))

    def test_full_annotation_resolution(self):
        # paths and cycles peel completely through the deg<=1 and duplicate
        # annotations before sc_dp resolves the log at the empty leaf
        rng = random.Random(11)
        for _ in range(40):
            ne = rng.randint(1, 6)
            sets = []
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(0, 2)
                sets.append(set(rng.sample(range(ne), min(size, ne))))
            inst = inst_from_sets(sets, ne)
            if max(inst.incidence.degree(e) for e in range(ne)) > 2:
                continue
            vec, _ = sc_count(inst)
            assert vec == brute_setcover(inst)


class TestSc3:
    def test_chorded_six_cycle(self):
        # alternating 6-cycle plus one chord: two degree-3 vertices
        inst = inst_from_sets([{0, 1}, {1, 2}, {2, 0, 1}], 3)
        assert sc_count(inst)[0] == brute_setcover(inst)

    def test_subcubic_translations(self):
        for n in (4, 5, 6, 7):
            g = Graph.cycle(n)
            got, _ = sc_count(ds_to_sc(g))
            assert got == brute_domset(LabeledGraph.all_u(g))

    def test_cubic_graphs_via_general_ladder(self, ladder):
        rng = random.Random(5)
        for _ in range(4):
            g = random_cubic(8, rng)
            vec, stats = sc_count(ds_to_sc(g))
            assert vec == brute_domset(LabeledGraph.all_u(g))
            assert stats.branchings >= 1


class TestOracleEquivalence:
    """At the shipped width cap, and with the ladder on every piece."""

    @settings(max_examples=150, deadline=None)
    @given(sc_instances(max_sets=8, max_elems=8))
    def test_matches_brute_setcover(self, inst):
        want = brute_setcover(inst)
        assert sc_count(inst)[0] == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smc.setcover, "PD_WIDTH_CAP", -1)
            assert sc_count(inst)[0] == want

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=9))
    def test_translation_matches_brute_domset(self, g):
        want = brute_domset(LabeledGraph.all_u(g))
        assert sc_count(ds_to_sc(g))[0] == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smc.setcover, "PD_WIDTH_CAP", -1)
            assert sc_count(ds_to_sc(g))[0] == want


class TestOrient:
    def test_gap_is_the_oriented_difference(self):
        """``pivot`` reads the side-weight gap that ``orient`` kept; after a
        swap it must be μ_r(R) − μ_r(L) of the new sides, not the old."""
        inst = ds_to_sc(random_cubic(10, random.Random(3)))
        vs = sorted(inst.active_vertices())
        inst.sep = Separation(set(vs[3:]), {vs[2]}, set(vs[:2]))  # L the heavier
        node = _Node(inst, ScWeights.published(), Stats(), None)
        node.orient()
        mu_l, _, mu_r = sc_side_weights(inst, node.w)
        assert inst.sep.right == set(vs[3:])
        assert node.gap == mu_r - mu_l > 0


class TestAudit:
    def test_zero_hard_violations_on_random_graphs(self, monkeypatch):
        for cap in (PD_WIDTH_CAP, -1):  # shipped, and the ladder everywhere
            monkeypatch.setattr(smc.setcover, "PD_WIDTH_CAP", cap)
            rng = random.Random(42)
            for _ in range(20):
                n = rng.randint(6, 14)
                g = Graph(range(n))
                for u in range(n):
                    for v in range(u + 1, n):
                        if rng.random() < 0.3:
                            g.add_edge(u, v)
                audit = Audit()
                sc_count(ds_to_sc(g), audit=audit)
                assert not audit.violations

    def test_ladder_entry_kinds(self, ladder):
        audit = Audit()
        sc_count(ds_to_sc(random_cubic(16, random.Random(2))), audit=audit)
        kinds = {e.kind for e in audit.entries}
        assert "handover" in kinds  # degree-4 incidence enters subcubic phase
        assert kinds & {"drag-R", "drag-L", "drag-path-R", "drag-path-L"}
        assert not audit.violations
        for e in audit.entries:
            if e.kind == "reseparate":
                assert "->" in e.note

    def test_balance_flags_are_logged_not_hard(self, ladder):
        # drag-R moves weight into the heavy side whenever the separator
        # vertex has no left neighbor; that trips the balance field only
        audit = Audit()
        sc_count(ds_to_sc(random_cubic(18, random.Random(9))), audit=audit)
        assert all(e.ok for e in audit.violations) or not audit.violations
        for e in audit.entries:
            if not e.checks.get("balance", True):
                assert e.checks["mu"]  # the literal measure check still held

    def test_strict_mode_clean_on_max_degree_two(self):
        inst = inst_from_sets([{0, 1}, {1, 2}, {2, 3}], 4)
        vec, _ = sc_count(inst, audit=Audit(strict=True))
        assert vec == brute_setcover(inst)

    def test_progress_checked_on_ladder_steps(self, ladder):
        audit = Audit()
        sc_count(ds_to_sc(random_cubic(14, random.Random(7))), audit=audit)
        assert all(e.checks.get("progress", True) and e.checks.get("active", True)
                   for e in audit.entries if e.hard)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        g = random_cubic(14, random.Random(1))
        a = sc_count(ds_to_sc(g))
        b = sc_count(ds_to_sc(g))
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_input_not_mutated(self):
        inst = ds_to_sc(Graph.complete(5))
        before = (inst.incidence.copy(), set(inst.annotated), inst.sep.copy())
        sc_count(inst)
        assert inst.incidence.edges() == before[0].edges()
        assert inst.annotated == before[1]
        assert inst.sep.left == before[2].left
        assert inst.sep.right == before[2].right
