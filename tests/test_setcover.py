"""Set-cover counting: incidence plumbing, the folds of degree-<=1 and
duplicate vertices, branches and splits over folded material, the
path-decomposition DP, the subcubic separator ladder, oracle equivalence,
and the runtime measure audit.  The ladder is tested with the DP terminal
switched off (the ``ladder`` fixture), since at the shipped width cap
small instances never reach it."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import graphs, sc_instances

import smc.policy
import smc.setcover
from smc.counts import CountVector, add_into
from smc.domset import LabeledGraph
from smc.graph import Graph
from smc.oracles import brute_domset, brute_setcover
from smc.weights import ScWeights
from smc.measures import Audit, sc_side_weights
from smc.policy import Stats
from smc.separator import Separation, nice_path_decomposition, trivial_separation
from smc.setcover import (
    PD_WIDTH_CAP,
    ScIncidence,
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
    return sc_dp(inst, nice_path_decomposition(inst.incidence))


def node(inst: ScIncidence) -> _Node:
    return _Node(inst, ScWeights.published(), Stats(), None)


def folded(inst: ScIncidence, steps: int) -> ScIncidence:
    """A copy after up to `steps` of the engine's own folds (``simplify``)."""
    inst = inst.copy()
    for _ in range(steps):
        if not node(inst).simplify():
            break
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

    @pytest.mark.parametrize("inst", [
        folded(parse_sc(SAMPLE), 1),  # element 0 folds into set 3: a pair
        folded(inst_from_sets([set()], 0), 1),  # the empty set: a factor only
    ], ids=["pair", "factor"])
    def test_format_and_oracle_refuse_folded(self, inst):
        assert inst.folded()
        with pytest.raises(ValueError, match="folded"):
            format_sc(inst)
        with pytest.raises(ValueError, match="folded"):
            brute_setcover(inst)


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


    @pytest.mark.parametrize("k", [3, 4, 7])
    def test_ring_of_pairs_is_walked(self, k, monkeypatch):
        # sets {j, j+1 mod k}: the incidence graph is one 2k-cycle, which
        # the loop counts along its walk order, with no greedy layout
        def refuse(g):
            raise AssertionError("a cycle is swept along its walk")

        for module in (smc.policy, smc.setcover):
            monkeypatch.setattr(module, "nice_path_decomposition", refuse)
        inst = inst_from_sets([{j, (j + 1) % k} for j in range(k)], k)
        vec, stats = sc_count(inst)
        assert vec == brute_setcover(inst)
        assert stats == Stats(leaves=1, dp_calls=1)


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
        assert dp(folded(inst, steps)) == brute_setcover(inst)

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=9), st.integers(0, 20))
    def test_translation_matches_brute_domset_after_annotations(self, g, steps):
        inst = folded(ds_to_sc(g), steps)
        assert dp(inst) == brute_domset(LabeledGraph.all_u(g))

    def test_full_annotation_resolution(self):
        # paths and cycles peel completely through the deg<=1 and duplicate
        # folds, down to an empty leaf that answers the factor
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


# -- the former CountVector sweep, kept as an oracle for the packed sc_dp


def cv_sweep(inst: ScIncidence, decomp) -> CountVector:
    """sc_dp with a CountVector per state, merged by ``add_into``."""
    adj = inst.incidence.neighbor_sets()
    bit: dict[int, int] = {}
    states = {0: CountVector.one()}
    prev: frozenset[int] = frozenset()
    for bag in [*decomp.bags, frozenset()]:
        for v in prev - bag:
            b = bit.pop(v)
            new: dict[int, CountVector] = {}
            for s, acc in states.items():
                if inst.is_set(v) or not s & b:
                    add_into(new, s & ~b, acc)
            states = new
        for v in bag - prev:
            used = sum(bit.values())
            bit[v] = b = ~used & (used + 1)
            nb = sum(bit.get(u, 0) for u in adj[v])
            new = {}
            if inst.is_set(v):
                covers, idle = inst.pair(v)
                for s, acc in states.items():
                    add_into(new, s, acc.convolve(idle))
                    add_into(new, (s & ~nb) | b, acc.convolve(covers))
            else:
                sat, pend = inst.pair(v)
                for s, acc in states.items():
                    if s & nb:
                        add_into(new, s, acc.convolve(sat + pend))
                    else:
                        add_into(new, s, acc.convolve(sat))
                        add_into(new, s | b, acc.convolve(pend))
            states = new
        prev = bag
    return inst.factor.convolve(states.get(0, CountVector.zero()))


def both_sweeps(inst: ScIncidence) -> tuple[CountVector, CountVector]:
    decomp = nice_path_decomposition(inst.incidence)
    return sc_dp(inst, decomp), cv_sweep(inst, decomp)


vectors = st.lists(st.integers(0, 6), max_size=4).map(CountVector)


@st.composite
def with_pairs(draw):
    """An instance whose vertices carry arbitrary nonnegative pairs, with
    several nonzero slots, and a factor."""
    inst = draw(sc_instances(max_sets=7, max_elems=7))
    for v in inst.incidence.vertices():
        if draw(st.booleans()):
            inst.pairs[v] = draw(vectors), draw(vectors)
    inst.factor = draw(vectors)
    return inst


class TestPackedSweep:
    """sc_dp's packed sweep against the former CountVector sweep on the
    same decomposition."""

    @settings(max_examples=150, deadline=None)
    @given(sc_instances(max_sets=8, max_elems=8), st.integers(0, 20))
    def test_matches_former_sweep_after_folds(self, inst, steps):
        got, want = both_sweeps(folded(inst, steps))
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=10), st.integers(0, 20))
    def test_matches_former_sweep_on_translations(self, g, steps):
        got, want = both_sweeps(folded(ds_to_sc(g), steps))
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(with_pairs())
    def test_matches_former_sweep_on_pairs_with_several_slots(self, inst):
        got, want = both_sweeps(inst)
        assert got == want

    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    @pytest.mark.parametrize("covers,idle,slot", [((1,), (1,), 0), ((0, 1), (0, 1), 1)],
                             ids=["constant", "monomial"])
    def test_identical_sets_over_one_element_fill_the_slot(self, k, covers, idle, slot):
        """k identical sets over an element already satisfied (pend = 0):
        no state is dropped, so all 2^k choices land in one coefficient,
        the total mass Π_v T_v, which needs every bit of the slot width
        W = bit_length(Π_v T_v)."""
        inst = inst_from_sets([{0}] * k, 1)
        inst.pairs = {0: (CountVector.one(), CountVector.zero())}
        inst.pairs.update({s: (CountVector(covers), CountVector(idle)) for s in inst.set_ids})
        got, want = both_sweeps(inst)
        assert got == want == CountVector.unit(slot * k).convolve(CountVector([2**k]))

    def test_identical_base_sets_over_one_element(self):
        inst = inst_from_sets([{0}] * 20, 1)
        got, want = both_sweeps(inst)
        assert got == want
        assert got.to_list(20) == [0] + [comb(20, j) for j in range(1, 21)]

    @pytest.mark.parametrize("pairs", [
        {},  # element 0 lies in no set: every state is dropped
        {2: (CountVector.zero(), CountVector.zero())},  # set 2 has no choice: mass 0
        {1: (CountVector.zero(), CountVector((0, 0)))},  # element 1 can be neither
    ], ids=["uncoverable", "set-without-choice", "element-without-choice"])
    def test_piece_that_counts_zero(self, pairs):
        inst = inst_from_sets([{1}], 2)
        inst.pairs.update(pairs)
        got, want = both_sweeps(inst)
        assert got == want == CountVector.zero()


class TestFoldedBranches:
    """Branches and splits over folded material, each checked against the
    oracle on the instance before any fold."""

    @pytest.mark.parametrize("sets,ne,steps,v,carriers", [
        # element 3 lies in set 4 alone and folds into it
        ([{0, 1, 2, 3}, {0, 1}, {1, 2}, {0, 2}], 4, 1, 4, {4}),
        # the singleton sets 4 and 5 fold into elements 0 and 1, which
        # leave with set 3 when it is taken
        ([{0, 1, 2}, {0}, {1}, {1, 2}, {0, 2}], 3, 2, 3, {0, 1}),
        # the singleton set 5 folds into element 0
        ([{0, 1}, {0, 2}, {0}, {1, 2}, {0, 1, 2}], 3, 1, 0, {0}),
        # element 3 folds into set 4, which leaves untaken when element 0
        # is forbidden
        ([{0, 1, 3}, {0, 2}, {1, 2}, {0, 1, 2}], 4, 1, 0, {4}),
    ], ids=["set", "set-neighbors", "element", "element-neighbors"])
    def test_branch_on_folded_material(self, sets, ne, steps, v, carriers):
        inst = inst_from_sets(sets, ne)
        work = folded(inst, steps)
        assert set(work.pairs) == carriers and v in work.incidence
        assert node(work).branch(v, "general", 0) == brute_setcover(inst)

    def test_split_counts_the_node_factor_once(self):
        # the empty set folds into the factor (1 + x) before the node
        # splits into its two 6-cycles
        cycles = [{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}]
        inst = inst_from_sets([set(), *cycles], 6)
        work = folded(inst, 1)
        assert work.factor == CountVector([1, 1]) and not work.pairs
        vec, stats = sc_count(work)
        assert vec == brute_setcover(inst) and stats.splits == 1


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
    """At the shipped width cap, at cap 3, where ladder branches and sweeps
    both meet folded pairs, and with the ladder on every piece."""

    CAPS = (PD_WIDTH_CAP, 3, -1)

    @settings(max_examples=150, deadline=None)
    @given(sc_instances(max_sets=8, max_elems=8))
    def test_matches_brute_setcover(self, inst):
        want = brute_setcover(inst)
        for cap in self.CAPS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(smc.setcover, "PD_WIDTH_CAP", cap)
                assert sc_count(inst)[0] == want

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=9))
    def test_translation_matches_brute_domset(self, g):
        want = brute_domset(LabeledGraph.all_u(g))
        for cap in self.CAPS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(smc.setcover, "PD_WIDTH_CAP", cap)
                assert sc_count(ds_to_sc(g))[0] == want


class TestOrient:
    def test_gap_is_the_oriented_difference(self):
        """``pivot`` reads the side-weight gap that ``orient`` kept; after a
        swap it must be μ_r(R) − μ_r(L) of the new sides, not the old."""
        inst = ds_to_sc(random_cubic(10, random.Random(3)))
        vs = inst.incidence.vertices()
        inst.sep = Separation(set(vs[3:]), {vs[2]}, set(vs[:2]))  # L the heavier
        node = _Node(inst, ScWeights.published(), Stats(), None)
        node.orient()
        mu_l, _, mu_r = sc_side_weights(inst, node.w)
        assert inst.sep.right == set(vs[3:])
        assert node.gap == mu_r - mu_l > 0


class TestAudit:
    def test_plain_count_computes_no_frozen_argument(self, ladder, monkeypatch):
        """μ₃'s frozen log argument is read only by the audit, so a count
        without one never computes it, through re-separations included."""
        def refuse(*_):
            raise AssertionError("sc_mu3_parts called without an audit")

        g = random_cubic(14, random.Random(1))
        want = sc_count(ds_to_sc(g))
        monkeypatch.setattr(smc.setcover, "sc_mu3_parts", refuse)
        vec, stats = sc_count(ds_to_sc(g))
        assert (vec, stats) == want and stats.separator_recomputes > 0

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
        g = Graph.complete(5)
        g.add_vertex(5)  # element 5 lies in set 11 alone and folds into it
        inst = folded(ds_to_sc(g), 1)
        assert set(inst.pairs) == {11}
        before = (inst.incidence.copy(), dict(inst.pairs), inst.factor, inst.sep.copy())
        vec, _ = sc_count(inst)
        assert vec == brute_domset(LabeledGraph.all_u(g))
        assert inst.incidence.edges() == before[0].edges()
        assert (inst.pairs, inst.factor) == before[1:3]
        assert inst.sep.left == before[3].left
        assert inst.sep.right == before[3].right
