"""The shared separator moves, and the engines that route through them.

``apply_move`` is checked on hand-built separations, one per move kind
and one per way a drag-path run can end.  The engine tests pin count
vectors and full stats of both #DS routes on seeded cubic graphs and on
cubic graphs with subdivided edges, and check that attaching an audit
changes neither.  The pins run the separator ladders with both
path-decomposition terminals switched off (``PD_WIDTH_CAP`` = -1), and
once more at the shipped cap.
"""

import random
from dataclasses import asdict

import pytest

from smc.domset import DsAudit, LabeledGraph, count_ds
from smc.generators import gen_random_cubic
from smc.graph import Graph
from smc.policy import PivotAction, apply_move
from smc.separator import Separation, verify_separation
from smc.setcover import ScAudit, ds_to_sc, sc_count


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
# stats when count_ds began to separate by the bag sweep.  Between them
# the runs make every move but rotate-pair (covered by TestApplyMove).
PINNED = {
    (24, 0, 0): (
        (0, 0, 0, 0, 0, 0, 1, 79, 3162, 32864, 158572, 452198, 863323, 1187035, 1230545,
         990499, 630451, 320355, 130180, 42030, 10602, 2024, 276, 24, 1),
        {'branchings': 2308, 'leaves': 10796, 'dp_calls': 10796, 'max_depth': 20,
         'separator_recomputes': 1621},
        {'branchings': 820, 'annotations': 9492, 'dp_calls': 2138, 'splits': 655,
         'leaves': 2138, 'max_depth': 55, 'separator_recomputes': 334}),
    (24, 2, 0): (
        (0, 0, 0, 0, 0, 0, 0, 158, 4577, 40667, 180456, 489622, 905997, 1221101, 1250044,
         998534, 632794, 320816, 130235, 42033, 10602, 2024, 276, 24, 1),
        {'branchings': 2710, 'leaves': 15054, 'dp_calls': 14892, 'max_depth': 18,
         'separator_recomputes': 1456},
        {'branchings': 899, 'annotations': 9552, 'dp_calls': 2484, 'splits': 846,
         'leaves': 2484, 'max_depth': 49, 'separator_recomputes': 406}),
    (24, 3, 0): (
        (0, 0, 0, 0, 0, 0, 0, 85, 2825, 29153, 144782, 425014, 829710, 1158786, 1213773,
         983381, 628319, 319924, 130127, 42027, 10602, 2024, 276, 24, 1),
        {'branchings': 1174, 'leaves': 4536, 'dp_calls': 4536, 'max_depth': 21,
         'separator_recomputes': 1012},
        {'branchings': 935, 'annotations': 10880, 'dp_calls': 2650, 'splits': 811,
         'leaves': 2650, 'max_depth': 50, 'separator_recomputes': 390}),
    (18, 1, 5): (
        (0, 0, 0, 0, 0, 0, 0, 80, 2159, 19042, 84548, 226220, 404867, 517913, 494423,
         362058, 206637, 92495, 32373, 8737, 1766, 253, 23, 1),
        {'branchings': 634, 'leaves': 3105, 'dp_calls': 3069, 'max_depth': 16,
         'separator_recomputes': 352},
        {'branchings': 405, 'annotations': 4514, 'dp_calls': 1098, 'splits': 379,
         'leaves': 1098, 'max_depth': 47, 'separator_recomputes': 185}),
    (20, 2, 3): (
        (0, 0, 0, 0, 0, 0, 0, 76, 2438, 23061, 102296, 266827, 462574, 573661, 532834,
         381360, 213729, 94367, 32712, 8775, 1768, 253, 23, 1),
        {'branchings': 382, 'leaves': 1740, 'dp_calls': 1740, 'max_depth': 14,
         'separator_recomputes': 136},
        {'branchings': 536, 'annotations': 4742, 'dp_calls': 1674, 'splits': 582,
         'leaves': 1674, 'max_depth': 43, 'separator_recomputes': 291}),
}


# sc_count stats at the shipped PD_WIDTH_CAP, where narrow pieces are
# counted by the path-decomposition DP instead of the ladder
PINNED_AT_CAP = {
    (24, 0, 0): {'branchings': 7, 'annotations': 8, 'dp_calls': 8, 'splits': 0,
                 'leaves': 8, 'max_depth': 6, 'separator_recomputes': 0},
    (24, 2, 0): {'branchings': 4, 'annotations': 4, 'dp_calls': 5, 'splits': 0,
                 'leaves': 5, 'max_depth': 4, 'separator_recomputes': 0},
    (24, 3, 0): {'branchings': 13, 'annotations': 10, 'dp_calls': 14, 'splits': 0,
                 'leaves': 14, 'max_depth': 8, 'separator_recomputes': 0},
    (18, 1, 5): {'branchings': 1, 'annotations': 1, 'dp_calls': 2, 'splits': 0,
                 'leaves': 2, 'max_depth': 2, 'separator_recomputes': 0},
    (20, 2, 3): {'branchings': 0, 'annotations': 0, 'dp_calls': 1, 'splits': 0,
                 'leaves': 1, 'max_depth': 0, 'separator_recomputes': 0},
}


# count_ds stats at the shipped PD_WIDTH_CAP: each pinned graph has a nice
# path decomposition of width <= 8 and is counted by one DP
DS_AT_CAP = {'branchings': 0, 'leaves': 1, 'dp_calls': 1, 'max_depth': 0,
             'separator_recomputes': 0}
# a cubic graph of width 9, wider than the cap: one separator, one branch,
# and three DPs; its counts came from the former core counters (25,150
# branchings)
WIDE_48 = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 25, 5770, 355669, 9584100, 143524500,
     1360852527, 8877235259, 42233589338, 153028601756, 436602948209, 1006847025368,
     1916302105883, 3061170278722, 4160565620922, 4864860405644, 4937960472902,
     4382609390439, 3420789035315, 2358627668252, 1441281772074, 782225045547,
     377468539402, 161958094594, 61718590325, 20840428043, 6212320500, 1625985449,
     370904386, 72996680, 12226180, 1710192, 194532, 17296, 1128, 48, 1),
    {'branchings': 1, 'leaves': 3, 'dp_calls': 3, 'max_depth': 2, 'separator_recomputes': 1})


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


class TestAuditIsPassive:
    @pytest.mark.parametrize("key", [(18, 1, 5), (20, 2, 3)])
    def test_count_ds(self, key, ladder):
        lg = LabeledGraph.all_u(pinned_graph(*key))
        audit = DsAudit(strict=True)
        assert count_ds(lg, audit=audit) == count_ds(lg)
        assert audit.entries

    @pytest.mark.parametrize("key", [(12, 0, 0), (14, 1, 0), (12, 0, 2)])
    def test_sc_count(self, key, ladder):
        inst = ds_to_sc(pinned_graph(*key))
        audit = ScAudit()
        assert sc_count(inst, audit=audit) == sc_count(inst)
        assert any(e.kind == "annotate" for e in audit.entries)
        assert any(e.kind.startswith("drag") for e in audit.entries)
