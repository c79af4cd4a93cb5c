"""Separator-case ladder shared by the subcubic branching solvers.

Given a separation (L,S,R) of a 3-regular graph, classify the separator
vertices by where their neighbors live and return the first applicable
action in priority order:

    drag-into-R   s has no neighbor in L        (move s to R)
    drag-into-L   s has no neighbor in R        (move s to L)
    one-each      one neighbor in each of L,S,R (branch on s)
    two-L         two in L, one in R: branch when |R₃| ≤ |L₃|+1,
                  otherwise rotate (s into L, its R-neighbor into S)
    two-R         one in L, two in R            (branch on s)

Within a case the smallest vertex id wins.  The Max 2-CSP solver and the
dominating-set counter both route their degree-3 pivot selection through
this ladder, which is what makes their branch sequences comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .separator import Separation


@dataclass(frozen=True)
class PivotAction:
    kind: str
    vertex: int | None = None
    partner: int | None = None


def deg3_side_counts(g: Graph, sep: Separation) -> tuple[int, int]:
    """(|L₃|, |R₃|): degree-3 vertices on each side."""
    adj = g.neighbor_sets()
    l3 = sum(1 for v in sep.left if len(adj[v]) == 3)
    r3 = sum(1 for v in sep.right if len(adj[v]) == 3)
    return l3, r3


def separator_case(g: Graph, sep: Separation) -> PivotAction:
    """First applicable separator case; all S vertices must have degree 3."""
    if not sep.sep:
        raise ValueError("empty separator: caller must re-separate")
    order = sorted(sep.sep)
    sides = {s: [0, 0, 0] for s in order}  # (in L, in S, in R)
    for s in order:
        for u in g.neighbors(s):
            side = sep.side_of(u)
            sides[s]["LSR".index(side)] += 1
    for s in order:
        if sides[s][0] == 0:
            return PivotAction("drag-R", s)
    for s in order:
        if sides[s][2] == 0:
            return PivotAction("drag-L", s)
    for s in order:
        if sides[s] == [1, 1, 1]:
            return PivotAction("branch", s)
    l3, r3 = deg3_side_counts(g, sep)
    for s in order:
        if sides[s][0] == 2 and sides[s][2] == 1:
            if r3 <= l3 + 1:
                return PivotAction("branch", s)
            partner = next(u for u in g.neighbors(s) if sep.side_of(u) == "R")
            return PivotAction("rotate", s, partner)
    for s in order:
        if sides[s][0] == 1 and sides[s][2] == 2:
            return PivotAction("branch", s)
    raise AssertionError("separator case ladder is exhaustive on cubic graphs")
