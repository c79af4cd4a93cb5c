"""The shared separator moves and loop, and the engines that route
through them.

``apply_move`` is checked on hand-built separations, one per move kind
and one per way a drag-path run can end; ``separator_case`` on
hand-built separations for its degree-≤2 row and each outcome of the
two-L rotate; and the loop's stall rule on a scripted node.  The engine tests pin count
vectors and full stats of both #DS routes on seeded cubic graphs and on
cubic graphs with subdivided edges, and check that attaching an audit
changes neither.  The pins run the separator ladders with both
path-decomposition terminals switched off (``PD_WIDTH_CAP`` = -1), and
once more at the shipped cap, where a wider total-domination instance
reaches the set-cover subcubic ladder.  Each engine's width test is
checked against the one state budget, 3^(PD_WIDTH_CAP+1) states, that
all three share.  The local baselines of the Max 2-CSP and #DS engines
are pinned too: answers, full stats and the #DS audit's kinds; and so
are the counts and full stats of both #DS policies and of set cover on
paths and cycles, plain and labelled, at both caps.
"""

import random
from collections import Counter
from dataclasses import asdict

import pytest

import smc.csp_solve
import smc.domset
import smc.policy
import smc.setcover
from smc.csp import encode_maxcut
from smc.csp_solve import solve
from smc.domset import LabeledGraph, branch3, count_ds
from smc.generators import csp_on_graph, gen_g4, gen_random_cubic
from smc.graph import Graph
from smc.measures import Audit
from smc.policy import Node, PivotAction, Stats, apply_move, run, separator_case
from smc.separator import (
    Separation,
    nice_path_decomposition,
    trivial_separation,
    verify_separation,
)
from smc.setcover import ScIncidence, ds_to_sc, sc_count, sc_dp
from smc.weights import CspWeights, ScWeights


def moved(g: Graph, sep: Separation, kind: str, s: int, partner=None,
          nbrs=None) -> Separation:
    adj = g.neighbor_sets()
    apply_move(sep, PivotAction(kind, s, partner), nbrs or adj.__getitem__)
    assert verify_separation(g, sep)
    return sep


def sides(sep: Separation) -> tuple[set[int], set[int], set[int]]:
    return sep.left, sep.sep, sep.right


class TestApplyMove:
    def test_drag_r_and_drag_l(self):
        g = Graph.path(4)
        sep = Separation({0}, {1, 2}, {3})
        moved(g, sep, "drag-R", 2)
        assert sides(sep) == ({0}, {1}, {2, 3})
        sep = Separation({0}, {1, 2}, {3})
        moved(g, sep, "drag-L", 1)
        assert sides(sep) == ({0, 1}, {2}, {3})

    def test_rotate(self):
        # s=0 has L-neighbours 1, 2 and R-neighbour 3, which takes its place
        g = Graph(range(6), [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (3, 5)])
        sep = moved(g, Separation({1, 2}, {0}, {3, 4, 5}), "rotate", 0, 3)
        assert sides(sep) == ({0, 1, 2}, {3}, {4, 5})

    def test_rotate_pair(self):
        # the degree-2 partner 3 already leads to the separator vertex 4
        g = Graph(range(7), [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5), (4, 6)])
        sep = moved(g, Separation({1, 2, 5}, {0, 4}, {3, 6}), "rotate-pair", 0, 3)
        assert sides(sep) == ({0, 1, 2, 3, 5}, {4}, {6})

    def test_drag_path_ends_at_separator_vertex(self):
        # run 0-1-2 into L meets the separator vertex 3, which stays in S
        g = Graph(range(7), [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (0, 6)])
        sep = moved(g, Separation({1, 2, 4}, {0, 3}, {5, 6}), "drag-path-R", 0)
        assert sides(sep) == ({4}, {3}, {0, 1, 2, 5, 6})

    def test_drag_path_ends_at_degree_3_vertex(self):
        # run 0-2 into R meets the degree-3 vertex 3, which joins S
        g = Graph(range(6), [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        sep = moved(g, Separation({1}, {0}, {2, 3, 4, 5}), "drag-path-L", 0)
        assert sides(sep) == ({0, 1, 2}, {3}, {4, 5})

    def test_drag_path_dies_out_at_degree_1_vertex(self):
        # the leaf 2 ends the run and moves with it; S empties
        g = Graph(range(4), [(0, 1), (1, 2), (0, 3)])
        sep = moved(g, Separation({1, 2}, {0}, {3}), "drag-path-R", 0)
        assert sides(sep) == (set(), set(), {0, 1, 2, 3})

    def test_drag_path_reads_only_the_given_neighbours(self):
        # vertex 5 hidden from nbrs (as an annotated vertex is): 2 counts
        # as degree 2 and the run goes on through it to the leaf 3
        g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (2, 5), (0, 4)])
        adj = g.neighbor_sets()
        sep = Separation({1, 2, 3}, {0}, {4})
        apply_move(sep, PivotAction("drag-path-R", 0), lambda v: adj[v] - {5})
        assert sides(sep) == (set(), set(), {0, 1, 2, 3, 4})
        sep = moved(g, Separation({1, 2, 3, 5}, {0}, {4}), "drag-path-R", 0)
        assert sides(sep) == ({3, 5}, {2}, {0, 1, 4})

    def test_branch_is_not_a_move(self):
        sep = Separation({0}, {1}, {2})
        with pytest.raises(ValueError):
            apply_move(sep, PivotAction("branch", 1), Graph.path(3).neighbor_sets().__getitem__)
        assert sides(sep) == ({0}, {1}, {2})


def with_k4(edges, first: int) -> list[tuple[int, int]]:
    """edges plus a K4 on first..first+3: four degree-3 vertices that tip
    the |L₃|/|R₃| balance toward the side they are put on."""
    return [*edges, *((first + i, first + j) for i in range(4) for j in range(i + 1, 4))]


class TestSeparatorCase:
    def test_low_vertex_before_the_cubic_rows(self):
        # 0 has degree 3 and no L-neighbour, but the degree-2 vertex 5,
        # with no R-neighbour, comes first
        g = Graph([0, 1, 2, 5, 6], [(0, 1), (0, 2), (0, 5), (1, 2), (5, 6)])
        sep = Separation({6}, {0, 5}, {1, 2})
        assert separator_case(g, sep) == PivotAction("drag-L", 5)

    def test_low_vertex_between_the_sides_drags_its_path(self):
        # 0 has one neighbour in L and one in R; a K4 on the R side puts
        # |R₃| = 4 > |L₃| + 1, on the L side it balances the other way
        g = Graph(range(7), with_k4([(0, 1), (0, 2)], 3))
        k4 = {3, 4, 5, 6}
        assert separator_case(g, Separation({1} | k4, {0}, {2})) == PivotAction("drag-path-R", 0)
        assert separator_case(g, Separation({1}, {0}, {2} | k4)) == PivotAction("drag-path-L", 0)

    def test_two_l_rotates_a_degree_2_partner_as_a_pair(self):
        # s = 0 has L-neighbours 1, 2 and the degree-2 R-neighbour 3, whose
        # other neighbour 4 is in S; the K4 in R makes 0 rotate
        g = Graph(range(11), with_k4([(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5), (4, 6)], 7))
        sep = Separation({1, 2, 5}, {0, 4}, {3, 6, 7, 8, 9, 10})
        assert separator_case(g, sep) == PivotAction("rotate-pair", 0, 3)

    def test_two_l_branches_when_the_partner_leads_into_r(self):
        # as above, but the partner's other neighbour 4 is in R
        g = Graph(range(9), with_k4([(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)], 5))
        sep = Separation({1, 2}, {0}, {3, 4, 5, 6, 7, 8})
        assert separator_case(g, sep) == PivotAction("branch", 0)

    def test_two_l_rotates_a_degree_3_partner(self):
        g = Graph(range(10), with_k4([(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (3, 5)], 6))
        sep = Separation({1, 2}, {0}, {3, 4, 5, 6, 7, 8, 9})
        assert separator_case(g, sep) == PivotAction("rotate", 0, 3)


class ScriptedNode(Node):
    """K4 with a scripted ladder: separating puts vertex 0 into S, every
    pivot drags it to R, and after the i-th drag `after_drag[i]`
    simplifications become available.  Nothing is narrow enough to
    sweep, and a branch answers with its kind."""

    def __init__(self, after_drag):
        self.graph, self.sep = Graph.complete(4), trivial_separation(range(4))
        self.stats, self.audit = Stats(), None
        self.after_drag, self.pending, self.log = list(after_drag), 0, []

    def simplify(self):
        if not self.pending:
            return False
        self.pending -= 1
        self.log.append("simplify")
        return True

    def separate(self):
        assert self.log.count("separate") < 3, f"no stall: {self.log}"
        self.log.append("separate")
        self.sep = Separation(set(), {0}, {1, 2, 3})
        return "decomposition"

    def sweep(self, decomp):
        return None

    def move(self, act):
        super().move(act)
        self.log.append(act.kind)
        self.pending = self.after_drag.pop(0) if self.after_drag else 0

    def branch(self, v, kind, depth):
        self.log.append(f"{kind} {v}")
        return kind


class TestStallRule:
    def test_first_drain_reseparates(self):
        node = ScriptedNode([])
        run(node, 0)
        assert node.log[:2] == ["separate", "drag-R"]
        assert node.stats.separator_recomputes == 1

    def test_second_drain_without_simplification_stalls(self):
        node = ScriptedNode([])
        assert run(node, 0) == "stall"
        assert node.log == ["separate", "drag-R", "stall 0"]
        assert (node.stats.separator_recomputes, node.stats.stalls,
                node.stats.branchings) == (1, 1, 1)

    def test_simplification_between_drains_reseparates(self):
        node = ScriptedNode([1])
        assert run(node, 0) == "stall"
        assert node.log == ["separate", "drag-R", "simplify", "separate", "drag-R", "stall 0"]
        assert (node.stats.separator_recomputes, node.stats.stalls,
                node.stats.branchings) == (2, 1, 1)


def subdivided(n: int, seed: int, k: int) -> Graph:
    """Random cubic graph with k seeded edges each split by a new vertex."""
    g = gen_random_cubic(n, seed)
    nxt = n
    for u, v in random.Random(seed).sample(g.edges(), k):
        g.remove_edge(u, v)
        g.add_vertex(nxt)
        g.add_edge(u, nxt)
        g.add_edge(nxt, v)
        nxt += 1
    return g


def pinned_graph(n: int, seed: int, k: int) -> Graph:
    return subdivided(n, seed, k) if k else gen_random_cubic(n, seed)


# (n, seed, subdivided edges) -> (counts, count_ds stats, sc_count stats)
# with the path-decomposition terminals off.  The counts and the sc_count
# stats were recorded before the engines shared apply_move, the count_ds
# stats when count_ds began to separate by the bag sweep, each engine's
# stalls (and the count_ds splits) when the engines took one Stats, and
# the sc_count max_depth when a set-cover re-separation began to cost one
# level of depth, as it does in the other engines, and the rest of the
# sc_count stats when a folded vertex began to leave the instance at once
# (no piece is left that holds only folded vertices).  Between them the runs
# make every move but rotate-pair (covered by TestApplyMove).
PINNED = {
    (24, 0, 0): (
        (0, 0, 0, 0, 0, 0, 1, 79, 3162, 32864, 158572, 452198, 863323, 1187035, 1230545,
         990499, 630451, 320355, 130180, 42030, 10602, 2024, 276, 24, 1),
        {'branchings': 2308, 'stalls': 567, 'leaves': 10796, 'dp_calls': 10796,
         'annotations': 0, 'splits': 4666, 'max_depth': 20,
         'separator_recomputes': 1621},
        {'branchings': 820, 'stalls': 243, 'annotations': 9492, 'dp_calls': 233, 'splits': 463,
         'leaves': 1376, 'max_depth': 56, 'separator_recomputes': 334}),
    (24, 2, 0): (
        (0, 0, 0, 0, 0, 0, 0, 158, 4577, 40667, 180456, 489622, 905997, 1221101, 1250044,
         998534, 632794, 320816, 130235, 42033, 10602, 2024, 276, 24, 1),
        {'branchings': 2710, 'stalls': 72, 'leaves': 15054, 'dp_calls': 14892,
         'annotations': 0, 'splits': 5958, 'max_depth': 18,
         'separator_recomputes': 1456},
        {'branchings': 899, 'stalls': 321, 'annotations': 9560, 'dp_calls': 133, 'splits': 674,
         'leaves': 1719, 'max_depth': 52, 'separator_recomputes': 405}),
    (24, 3, 0): (
        (0, 0, 0, 0, 0, 0, 0, 85, 2825, 29153, 144782, 425014, 829710, 1158786, 1213773,
         983381, 628319, 319924, 130127, 42027, 10602, 2024, 276, 24, 1),
        {'branchings': 1174, 'stalls': 768, 'leaves': 4536, 'dp_calls': 4536,
         'annotations': 0, 'splits': 2187, 'max_depth': 21,
         'separator_recomputes': 1012},
        {'branchings': 935, 'stalls': 300, 'annotations': 10880, 'dp_calls': 122, 'splits': 669,
         'leaves': 1738, 'max_depth': 52, 'separator_recomputes': 388}),
    (18, 1, 5): (
        (0, 0, 0, 0, 0, 0, 0, 80, 2159, 19042, 84548, 226220, 404867, 517913, 494423,
         362058, 206637, 92495, 32373, 8737, 1766, 253, 23, 1),
        {'branchings': 634, 'stalls': 189, 'leaves': 3105, 'dp_calls': 3069,
         'annotations': 0, 'splits': 1683, 'max_depth': 16,
         'separator_recomputes': 352},
        {'branchings': 405, 'stalls': 154, 'annotations': 4514, 'dp_calls': 53, 'splits': 352,
         'leaves': 839, 'max_depth': 49, 'separator_recomputes': 185}),
    (20, 2, 3): (
        (0, 0, 0, 0, 0, 0, 0, 76, 2438, 23061, 102296, 266827, 462574, 573661, 532834,
         381360, 213729, 94367, 32712, 8775, 1768, 253, 23, 1),
        {'branchings': 382, 'stalls': 0, 'leaves': 1740, 'dp_calls': 1740,
         'annotations': 0, 'splits': 702, 'max_depth': 14,
         'separator_recomputes': 136},
        {'branchings': 536, 'stalls': 252, 'annotations': 4742, 'dp_calls': 69, 'splits': 513,
         'leaves': 1101, 'max_depth': 46, 'separator_recomputes': 291}),
}


# sc_count stats at the shipped PD_WIDTH_CAP, where narrow pieces are
# counted by the path-decomposition DP instead of the ladder: within the
# budget of 2^14 set-cover states each pinned translation is swept whole
# at its first width test, before any branch or separation
PINNED_AT_CAP = dict.fromkeys(
    [(24, 0, 0), (24, 2, 0), (24, 3, 0), (18, 1, 5), (20, 2, 3)],
    {'branchings': 0, 'stalls': 0, 'annotations': 0, 'dp_calls': 1, 'splits': 0,
     'leaves': 1, 'max_depth': 0, 'separator_recomputes': 0})


def total_domination(g: Graph) -> ScIncidence:
    """Total dominating sets of g as set covers: element v lies in the set
    of each neighbour of v, so a cubic g gives a cubic incidence graph."""
    n = g.n
    inc = Graph(range(2 * n))
    for u, v in g.edges():
        inc.add_edge(u, n + v)
        inc.add_edge(v, n + u)
    return ScIncidence(inc, set(range(n, 2 * n)), sep=trivial_separation(range(2 * n)))


# total dominating sets of gen_random_cubic(42, 1) at the shipped
# PD_WIDTH_CAP: its incidence graph has width 15, wider than set cover's
# 13, so the instance enters the subcubic ladder at once; a piece is
# width-tested where S empties, after its re-separation, and at a ladder
# branch made without a current decomposition.  The counts agree with a
# run under set cover's former budget of 2^9 states, which branches 64 times
TOTAL_42 = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11, 2062, 89658, 1716356, 18176820,
     120631713, 543712618, 1761166033, 4274466048, 8024080049, 11940013193, 14356131385,
     14157894463, 11585703796, 7936104617, 4579002300, 2234273005, 923551139, 323223547,
     95480332, 23660884, 4869830, 819816, 110296, 11438, 861, 42, 1),
    {'branchings': 3, 'stalls': 0, 'leaves': 4, 'dp_calls': 4, 'annotations': 0,
     'splits': 0, 'max_depth': 5, 'separator_recomputes': 1})


# count_ds stats at the shipped PD_WIDTH_CAP: each pinned graph has a nice
# path decomposition of width <= 8, separates from it once and is counted
# by one DP over it
DS_AT_CAP = {'branchings': 0, 'stalls': 0, 'leaves': 1, 'dp_calls': 1, 'annotations': 0,
             'splits': 0, 'max_depth': 0, 'separator_recomputes': 1}
# a cubic graph of width 9, wider than the cap: one separator, one branch,
# and three DPs: each child moves along the ladder to its first branch
# pivot, whose width test finds it narrow; its counts came from the former
# core counters (25,150 branchings)
WIDE_48 = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 25, 5770, 355669, 9584100, 143524500,
     1360852527, 8877235259, 42233589338, 153028601756, 436602948209, 1006847025368,
     1916302105883, 3061170278722, 4160565620922, 4864860405644, 4937960472902,
     4382609390439, 3420789035315, 2358627668252, 1441281772074, 782225045547,
     377468539402, 161958094594, 61718590325, 20840428043, 6212320500, 1625985449,
     370904386, 72996680, 12226180, 1710192, 194532, 17296, 1128, 48, 1),
    {'branchings': 1, 'stalls': 0, 'leaves': 3, 'dp_calls': 3, 'annotations': 0, 'splits': 0,
     'max_depth': 5, 'separator_recomputes': 1})


class TestEnginesPinned:
    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_count_ds_and_sc_count(self, key, ladder):
        counts, ds_stats, sc_stats = PINNED[key]
        g = pinned_graph(*key)
        vec, stats = count_ds(LabeledGraph.all_u(g))
        assert vec.counts == counts and asdict(stats) == ds_stats
        vec, stats = sc_count(ds_to_sc(g))
        assert vec.counts == counts and asdict(stats) == sc_stats

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_count_ds_at_width_cap(self, key):
        vec, stats = count_ds(LabeledGraph.all_u(pinned_graph(*key)))
        assert vec.counts == PINNED[key][0] and asdict(stats) == DS_AT_CAP

    def test_count_ds_wider_than_cap(self):
        vec, stats = count_ds(LabeledGraph.all_u(gen_random_cubic(48, 1)))
        assert (vec.counts, asdict(stats)) == WIDE_48

    @pytest.mark.parametrize("key", sorted(PINNED_AT_CAP))
    def test_sc_count_at_width_cap(self, key):
        vec, stats = sc_count(ds_to_sc(pinned_graph(*key)))
        assert vec.counts == PINNED[key][0] and asdict(stats) == PINNED_AT_CAP[key]

    def test_sc_count_on_the_ladder_at_width_cap(self):
        inst = total_domination(gen_random_cubic(42, 1))
        assert nice_path_decomposition(inst.incidence).width == 15
        vec, stats = sc_count(inst)
        assert (vec.counts, asdict(stats)) == TOTAL_42


# the widest width each engine's narrow accepts, per PD_WIDTH_CAP: #DS at
# 3 states per bag vertex, set cover at 2, Max 2-CSP at r
WIDEST = {
    -1: {"ds": -1, "sc": -1, 2: -1, 3: -1, 4: -1},
    3: {"ds": 3, "sc": 5, 2: 5, 3: 3, 4: 2},
    8: {"ds": 8, "sc": 13, 2: 13, 3: 8, 4: 6},
}


def narrow_nodes() -> dict:
    """A node of each engine, keyed as in WIDEST, with its states per bag
    vertex."""
    g = Graph.path(2)
    sep = trivial_separation(g.vertices())
    nodes = {"ds": (3, smc.domset._Node(LabeledGraph.all_u(g), sep, Stats(), None)),
             "sc": (2, smc.setcover._Node(ds_to_sc(g), ScWeights.published(), Stats(), None))}
    for r in (2, 3, 4):
        nodes[r] = (r, smc.csp_solve._Node(csp_on_graph(g, r, 0), sep, Stats(), None,
                                           CspWeights.published()))
    return nodes


class TestStateBudget:
    """All three sweeps share one budget of 3^(PD_WIDTH_CAP+1) states."""

    @pytest.mark.parametrize("cap", [-1, 3, 8])
    def test_narrow_holds_exactly_within_the_budget(self, cap, monkeypatch):
        monkeypatch.setattr(smc.policy, "PD_WIDTH_CAP", cap)
        for key, (base, node) in narrow_nodes().items():
            widest = WIDEST[cap][key]
            assert [node.narrow(w) for w in range(16)] == [w <= widest for w in range(16)]
            assert base ** (widest + 1) <= 3 ** (cap + 1) < base ** (widest + 2)

    @pytest.mark.parametrize("n,seed,width", [(36, 2, 13), (40, 1, 14)])
    def test_set_cover_sweeps_width_13_and_branches_width_14(self, n, seed, width):
        inst = total_domination(gen_random_cubic(n, seed))
        decomp = nice_path_decomposition(inst.incidence)
        assert decomp.width == width
        vec, stats = sc_count(inst)
        assert vec == sc_dp(inst, decomp)
        if width <= 13:
            assert (stats.branchings, stats.dp_calls) == (0, 1)
        else:
            assert stats.branchings > 0


class TestAuditIsPassive:
    @pytest.mark.parametrize("key", [(18, 1, 5), (20, 2, 3)])
    def test_count_ds(self, key, ladder):
        lg = LabeledGraph.all_u(pinned_graph(*key))
        audit = Audit(strict=True)
        assert count_ds(lg, audit=audit) == count_ds(lg)
        assert audit.entries

    @pytest.mark.parametrize("key", [(12, 0, 0), (14, 1, 0), (12, 0, 2)])
    def test_sc_count(self, key, ladder):
        inst = ds_to_sc(pinned_graph(*key))
        audit = Audit()
        assert sc_count(inst, audit=audit) == sc_count(inst)
        assert any(e.kind == "annotate" for e in audit.entries)
        assert any(e.kind.startswith("drag") for e in audit.entries)


def local_stats(branchings: int, leaves: int, dp_calls: int, max_depth: int) -> dict:
    """A local run's stats: it never splits, stalls or separates."""
    return {'branchings': branchings, 'stalls': 0, 'leaves': leaves, 'dp_calls': dp_calls,
            'annotations': 0, 'splits': 0, 'max_depth': max_depth, 'separator_recomputes': 0}


# (score, witness colours in vertex order, stats) of solve(policy="local")
# on csp_on_graph(gen_random_cubic(20, seed), 2, seed) and on the max-cut
# encoding of gen_g4(16, 8)
LOCAL_CSP = {
    0: (75, "01111110001101101111", local_stats(15, 16, 0, 20)),
    1: (90, "00000011100001101010", local_stats(15, 16, 0, 20)),
    2: (53, "01011101111111001100", local_stats(7, 8, 0, 20)),
    "g4": (35, "00110011010110101001100", local_stats(31, 32, 0, 23)),
}

# (counts, stats) of count_ds(policy="local") on gen_random_cubic(16, seed),
# and on the forbidden child of a branch3 on vertex 0 of seed 0's graph
LOCAL_DS = {
    0: ((0, 0, 0, 0, 0, 93, 961, 3549, 6924, 8449, 7036, 4182, 1804, 560, 120, 16, 1),
        local_stats(121, 243, 243, 5)),
    1: ((0, 0, 0, 0, 0, 52, 777, 3260, 6692, 8343, 7009, 4179, 1804, 560, 120, 16, 1),
        local_stats(310, 621, 621, 6)),
    "forb": ((0, 0, 0, 0, 1, 15, 73, 155, 171, 111, 44, 10, 1),
             local_stats(40, 81, 81, 4)),
}


class TestLocalPinned:
    @pytest.mark.parametrize("key", list(LOCAL_CSP))
    def test_solve(self, key):
        score, witness, stats = LOCAL_CSP[key]
        if key == "g4":
            inst = encode_maxcut(gen_g4(16, 8))
        else:
            inst = csp_on_graph(gen_random_cubic(20, key), 2, key)
        sol, got = solve(inst, policy="local")
        colours = "".join(str(sol.assignment[v]) for v in inst.graph.vertices())
        assert (sol.score, colours, asdict(got)) == (score, witness, stats)

    @pytest.mark.parametrize("key", list(LOCAL_DS))
    def test_count_ds(self, key):
        counts, stats = LOCAL_DS[key]
        if key == "forb":
            lg = branch3(LabeledGraph.all_u(gen_random_cubic(16, 0)), 0)[2]
        else:
            lg = LabeledGraph.all_u(gen_random_cubic(16, key))
        vec, got = count_ds(lg, policy="local")
        assert (vec.counts, asdict(got)) == (counts, stats)

    def test_count_ds_audit_kinds(self):
        # one entry per branch and per swept piece, all of them ok; the
        # loop names a local branch "general" and a swept piece "dp"
        audit = Audit(strict=True)
        vec, _ = count_ds(LabeledGraph.all_u(gen_random_cubic(16, 0)), policy="local",
                          audit=audit)
        assert vec.counts == LOCAL_DS[0][0]
        assert Counter(e.kind for e in audit.entries) == {"general": 121, "dp": 243}
        assert all(e.ok for e in audit.entries)


def chain(name: str) -> Graph:
    if name == "P30":
        return Graph.path(30)
    if name == "C31":
        return Graph.cycle(31)
    return Graph(range(11), [(i, i + 1) for i in range(4)]  # P5 ⊔ C6
                 + [(5 + i, 5 + (i + 1) % 6) for i in range(6)])


def labelled(g: Graph) -> LabeledGraph:
    """g with vertex v labelled "UNC"[v % 3] unless 4 divides v."""
    return LabeledGraph(g.copy(), {v: "UNC"[v % 3] if v % 4 else "U" for v in g.vertices()})


# name -> (counts, counts of the labelled variant, count_ds stats) of a
# chain input; the count_ds stats are the same at both caps, labelled or
# not, and the local policy's are always one leaf and one DP
CHAINS = {
    "P30": (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 330, 10351, 116116, 673699, 2403834, 5820195,
         10171968, 13370058, 13591364, 10889622, 6960650, 3572722, 1474462, 487278, 127604,
         25975, 3978, 433, 30, 1),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 301, 2818, 11643, 27062, 39958, 40074, 28310, 14310,
         5166, 1304, 219, 22, 1),
        Stats(leaves=1, dp_calls=1)),
    "C31": (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 186, 8866, 125488, 860808, 3522654, 9627732,
         18835848, 27610584, 31284828, 27996348, 20076065, 11640407, 5480211, 2094081, 645978,
         159030, 30628, 4464, 465, 31, 1),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 342, 3743, 18239, 50020, 87147, 103385, 86964, 52995,
         23553, 7577, 1721, 262, 24, 1),
        Stats(leaves=1, dp_calls=1)),
    "P5+C6": (
        (0, 0, 0, 0, 9, 66, 172, 211, 140, 53, 11, 1),
        (0, 0, 0, 0, 4, 14, 16, 7, 1),
        Stats(leaves=2, dp_calls=2, splits=1, max_depth=1)),
}

# (cap, name) -> sc_count stats of the chain's ds_to_sc translation
SC_CHAINS = {
    (-1, "P30"): Stats(branchings=109, stalls=74, leaves=226, annotations=822, splits=116,
                       max_depth=36, separator_recomputes=102),
    (-1, "C31"): Stats(branchings=287, stalls=192, leaves=593, annotations=2182, splits=305,
                       max_depth=41, separator_recomputes=263),
    (-1, "P5+C6"): Stats(branchings=7, stalls=5, leaves=14, annotations=46, splits=6,
                         max_depth=19, separator_recomputes=6),
    (8, "P30"): Stats(leaves=1, dp_calls=1, separator_recomputes=1),
    (8, "C31"): Stats(leaves=1, dp_calls=1, separator_recomputes=1),
    (8, "P5+C6"): Stats(leaves=2, dp_calls=2, splits=1, max_depth=1, separator_recomputes=2),
}


class TestChainsPinned:
    @pytest.mark.parametrize("cap", [-1, 8])
    @pytest.mark.parametrize("name", list(CHAINS))
    def test_count_ds_and_sc_count(self, name, cap, monkeypatch):
        monkeypatch.setattr(smc.policy, "PD_WIDTH_CAP", cap)
        counts, lab_counts, stats = CHAINS[name]
        g = chain(name)
        for lg, want in ((LabeledGraph.all_u(g), counts), (labelled(g), lab_counts)):
            vec, got = count_ds(lg)
            assert (vec.counts, got) == (want, stats)
            vec, got = count_ds(lg, policy="local")
            assert (vec.counts, got) == (want, Stats(leaves=1, dp_calls=1))
        vec, got = sc_count(ds_to_sc(g))
        assert (vec.counts, got) == (counts, SC_CHAINS[cap, name])
