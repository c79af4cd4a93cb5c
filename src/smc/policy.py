"""Separator state machine shared by the subcubic engines: the case
ladder that picks the next action, and ``apply_move``, which makes the
non-branching moves on a separation in place.  The engines choose their
moves (``separator_case``, ``select_pivot_ds``, the set-cover gap
ladder); only here are moves carried out.  ``Stats`` holds the run
counters of all three engines.

Given a separation (L,S,R) of a 3-regular graph, ``separator_case``
classifies the separator vertices by where their neighbors live and
returns the first applicable action in priority order:

    drag-into-R   s has no neighbor in L        (move s to R)
    drag-into-L   s has no neighbor in R        (move s to L)
    one-each      one neighbor in each of L,S,R (branch on s)
    two-L         two in L, one in R: branch when |R₃| ≤ |L₃|+1,
                  otherwise rotate (s into L, its R-neighbor into S)
    two-R         one in L, two in R            (branch on s)

Within a case the smallest vertex id wins.  Sharing this ladder is what
makes the Max 2-CSP and #DS engines' branch sequences comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection

from .graph import Graph
from .separator import Separation


@dataclass
class Stats:
    """Run counters of all three engines; each counts the fields that
    apply to it (only set cover annotates)."""
    branchings: int = 0  # stall branches included
    stalls: int = 0  # the ladder drained S and nothing was removed since
    leaves: int = 0  # empty instances and terminal DPs
    dp_calls: int = 0
    annotations: int = 0
    splits: int = 0  # nodes whose graph fell into components
    max_depth: int = 0
    separator_recomputes: int = 0


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


MOVES = frozenset({"drag-R", "drag-L", "drag-path-R", "drag-path-L",
                   "rotate", "rotate-pair"})


def _run(sep: Separation, s: int, side: str,
         nbrs: Callable[[int], Collection[int]]) -> tuple[list[int], int | None]:
    """s and its degree-<=2 run into `side`, and the S or degree-3 vertex
    that ends it; None when the run dies out at a degree-1 vertex, which
    then belongs to the run.  L and R are not adjacent, so past s the run
    stays in `side`."""
    run, prev = [s], s
    cur = next(u for u in nbrs(s) if sep.side_of(u) == side)
    while cur not in sep.sep and len(nbrs(cur)) < 3:
        run.append(cur)
        ahead = [u for u in nbrs(cur) if u != prev]
        if not ahead:
            return run, None
        prev, cur = cur, ahead[0]
    return run, cur


def apply_move(sep: Separation, act: PivotAction,
               nbrs: Callable[[int], Collection[int]]) -> None:
    """Make a non-branching separator move on sep, in place.

        drag-R / drag-L     s joins R / L
        drag-path-R / -L    s and its run into L / R join R / L, and the
                            vertex ending the run joins S
        rotate              s joins L, its R-neighbour `partner` joins S
        rotate-pair         s and `partner` both join L

    nbrs(v) gives v's current neighbours; only drag-path reads it.
    """
    kind, s = act.kind, act.vertex
    if kind not in MOVES:
        raise ValueError(f"not a separator move: {kind}")
    if kind in ("drag-path-R", "drag-path-L"):
        to_right = kind == "drag-path-R"
        dest, walked = (sep.right, sep.left) if to_right else (sep.left, sep.right)
        run, stop = _run(sep, s, "L" if to_right else "R", nbrs)
        for v in run:
            sep.discard(v)
            dest.add(v)
        if stop is not None and stop not in sep.sep:
            walked.discard(stop)
            sep.sep.add(stop)
        return
    sep.sep.remove(s)
    (sep.right if kind == "drag-R" else sep.left).add(s)
    if kind in ("rotate", "rotate-pair"):
        sep.right.remove(act.partner)
        (sep.sep if kind == "rotate" else sep.left).add(act.partner)
