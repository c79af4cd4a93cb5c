"""The separator ladder of the three engines: ``run``, the one loop that
steps every node of the Max 2-CSP, #DS and set-cover engines, through the
general phase and down the ladder, in the order that it owns; the case
ladder that picks the next pivot; ``apply_move``, which makes the
non-branching moves on a separation in place; and ``Stats``, the run
counters of all three.  An engine's ``Node`` applies the engine's own
rules at each step and keeps its audit records.

Given a separation (L,S,R) of a subcubic graph, ``separator_case``
classifies the separator vertices by their degree and by where their
neighbors live, and returns the first applicable action in priority
order:

    low           the smallest s of degree ≤ 2, if any:
                    no neighbor in L   drag-R (move s to R)
                    no neighbor in R   drag-L (move s to L)
                    otherwise          drag-path-R when |R₃| ≤ |L₃|+1, else
                                       drag-path-L (s and its degree-≤2 run
                                       cross, the vertex ending it joins S)
    drag-into-R   s has no neighbor in L        (move s to R)
    drag-into-L   s has no neighbor in R        (move s to L)
    one-each      one neighbor in each of L,S,R (branch on s)
    two-L         two in L, one in R: branch when |R₃| ≤ |L₃|+1,
                  otherwise rotate (s into L, its R-neighbor p into S)
                  when p has degree 3, rotate-pair (s and p into L) when
                  p has degree 2 and its other neighbor is in S, and
                  branch on s otherwise: pulling any other low-degree p
                  into S could drag forever
    two-R         one in L, two in R            (branch on s)

Within a case the smallest vertex id wins.  The Max 2-CSP and #DS engines
both pivot by this one ladder; on a Max 2-CSP node every vertex has
degree 3 by the time it is reached, so the low row and the rotate's
guard never fire there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Collection

from .graph import Graph, connected_components
from .separator import PathDecomposition, Separation, nice_path_decomposition, verify_separation


@dataclass
class Stats:
    """Run counters of all three engines; each counts the fields that
    apply to it."""
    branchings: int = 0  # general and stall branches included
    stalls: int = 0  # the ladder drained S and nothing was removed since
    leaves: int = 0  # empty instances and terminal DPs
    dp_calls: int = 0
    annotations: int = 0  # set cover's folds of degree-<=1 and duplicate vertices
    splits: int = 0  # nodes whose graph fell into components
    max_depth: int = 0
    separator_recomputes: int = 0


@dataclass(frozen=True)
class PivotAction:
    kind: str
    vertex: int | None = None
    partner: int | None = None


def side_counts(g: Graph, sep: Separation) -> tuple[int, int, int, int]:
    """(|L₃|, |S₃|, |S₂|, |R₃|): degree-3 vertices on each side, and
    degree-2 vertices in S."""
    adj = g.neighbor_sets()
    s_deg = [len(adj[v]) for v in sep.sep]
    l3 = sum(1 for v in sep.left if len(adj[v]) == 3)
    r3 = sum(1 for v in sep.right if len(adj[v]) == 3)
    return l3, s_deg.count(3), s_deg.count(2), r3


def separator_case(g: Graph, sep: Separation) -> PivotAction:
    """First applicable separator case of the ladder above."""
    if not sep.sep:
        raise ValueError("empty separator: caller must re-separate")
    adj = g.neighbor_sets()
    order = sorted(sep.sep)
    sides = {s: [0, 0, 0] for s in order}  # (in L, in S, in R)
    for s in order:
        for u in adj[s]:
            sides[s]["LSR".index(sep.side_of(u))] += 1
    low = next((s for s in order if len(adj[s]) <= 2), None)
    if low is not None:
        if sides[low][0] == 0:
            return PivotAction("drag-R", low)
        if sides[low][2] == 0:
            return PivotAction("drag-L", low)
        l3, _, _, r3 = side_counts(g, sep)
        return PivotAction("drag-path-R" if r3 <= l3 + 1 else "drag-path-L", low)
    for s in order:
        if sides[s][0] == 0:
            return PivotAction("drag-R", s)
    for s in order:
        if sides[s][2] == 0:
            return PivotAction("drag-L", s)
    for s in order:
        if sides[s] == [1, 1, 1]:
            return PivotAction("branch", s)
    l3, _, _, r3 = side_counts(g, sep)
    for s in order:
        if sides[s][0] == 2 and sides[s][2] == 1:
            if r3 <= l3 + 1:
                return PivotAction("branch", s)
            partner = next(u for u in adj[s] if sep.side_of(u) == "R")
            rest = adj[partner] - {s}  # the partner's other neighbours
            if len(rest) == 2:
                return PivotAction("rotate", s, partner)
            if len(rest) == 1 and sep.side_of(next(iter(rest))) == "S":
                return PivotAction("rotate-pair", s, partner)
            return PivotAction("branch", s)
    for s in order:
        if sides[s][0] == 1 and sides[s][2] == 2:
            return PivotAction("branch", s)
    raise AssertionError("separator case ladder is exhaustive on subcubic graphs")


def _walk(sep: Separation, s: int, side: str,
          nbrs: Callable[[int], Collection[int]]) -> tuple[list[int], int | None]:
    """s and its degree-<=2 run into `side`, and the S or degree-3 vertex
    that ends it; None when the run dies out at a degree-1 vertex, which
    then belongs to the run.  L and R are not adjacent, so past s the run
    stays in `side`."""
    path, prev = [s], s
    cur = next(u for u in nbrs(s) if sep.side_of(u) == side)
    while cur not in sep.sep and len(nbrs(cur)) < 3:
        path.append(cur)
        ahead = [u for u in nbrs(cur) if u != prev]
        if not ahead:
            return path, None
        prev, cur = cur, ahead[0]
    return path, cur


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
    if kind not in ("drag-R", "drag-L", "drag-path-R", "drag-path-L", "rotate", "rotate-pair"):
        raise ValueError(f"not a separator move: {kind}")
    if kind in ("drag-path-R", "drag-path-L"):
        to_right = kind == "drag-path-R"
        dest, walked = (sep.right, sep.left) if to_right else (sep.left, sep.right)
        path, stop = _walk(sep, s, "L" if to_right else "R", nbrs)
        for v in path:
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


class Node:
    """One node of ``run``: an engine's instance with its ``graph`` and its
    separation ``sep``, both consumed by the loop, and the run's ``stats``
    and ``audit``.  An engine supplies ``leaf``, ``split``, ``separate``,
    ``sweep`` and ``branch``; the defaults below (no off-ladder answer, no
    general phase, the cubic ladder's rules) are overridden where an
    engine's own differ.  A local node, an engine's baseline, has no split
    (``splits`` is False), no separation (its ``general_pivot`` names a
    vertex at every degree) and no sweep (``decompose`` gives None)."""

    splits = True  # False: run never splits the node into its components

    def check(self) -> None:
        """Assert the node's invariants; called only under an audit."""
        assert verify_separation(self.graph, self.sep), "separation invalid at recursive call"

    def orient(self) -> None:
        """Make the lighter side L: the one with fewer degree-3 vertices.
        An empty L, as in a trivial separation, is the lighter already."""
        if self.sep.left:
            l3, _, _, r3 = side_counts(self.graph, self.sep)
            if l3 > r3:
                self.sep.swap()

    def simplify(self) -> bool:
        """Make one in-place simplification; False when none applies."""
        return False

    def direct(self, depth: int):
        """The answer, when the engine settles the node off the ladder."""
        return None

    def general_pivot(self) -> int | None:
        """The general phase's branch vertex while a degree is above 3, else None."""
        return None

    def decompose(self) -> PathDecomposition:
        return nice_path_decomposition(self.graph)

    def pivot(self) -> PivotAction:
        return separator_case(self.graph, self.sep)

    def move(self, act: PivotAction) -> None:
        apply_move(self.sep, act, self.graph.neighbor_sets().__getitem__)

    def stall(self) -> int:
        """The vertex a stall branches on: the smallest of degree 3."""
        return min(v for v in self.graph.vertices() if self.graph.degree(v) == 3)


def run(node: Node, depth: int):
    """The answer of `node`.  Each pass orients the separation and takes
    the first step that applies:

      1. an empty instance is a leaf;
      2. at node entry, a disconnected graph splits into its components
         (no simplification disconnects one) if ``node.splits``;
      3. one in-place simplification;
      4. the engine settles the node off the ladder (``direct``);
      5. the general phase: while the engine names a maximum-degree
         vertex (``general_pivot``), a branch on it;
      6. at S = ∅, a stall when nothing was simplified since the last
         re-separation: separating again would repeat the cycle, so the
         node branches on one vertex, outside the analysed cases.  Else a
         fresh decomposition, a separation from it and a sweep over it,
         which answers None when the piece is too wide;
      7. the ladder's pivot: a move, made in place, or a branch.

    Every branch is width-tested first, by a sweep over a fresh
    decomposition, unless the last re-separation's already failed it (as
    at every stall).  Steps that do not branch loop in place, one level of
    depth each.  Step 6 separates before it sweeps, as the benchmark's
    tracer test needs of a narrow ``csp-cubic`` solve.
    """
    stats, decomp, entry = node.stats, None, node.splits  # decomp: the last re-separation's
    for depth in count(depth):  # a pass that does not return goes one level deeper
        stats.max_depth = max(stats.max_depth, depth)
        if node.audit is not None:
            node.check()
        if not node.graph.n:
            stats.leaves += 1
            return node.leaf()
        node.orient()
        if entry:
            entry, parts = False, connected_components(node.graph)
            if len(parts) > 1:
                stats.splits += 1
                return node.split(parts, depth + 1)
        if node.simplify():
            decomp = None
            continue
        answer = node.direct(depth + 1)
        if answer is not None:
            return answer
        y, kind = node.general_pivot(), "general"
        if y is None and not node.sep.sep:
            if decomp is None:
                decomp = node.separate()
                stats.separator_recomputes += 1
                answer = node.sweep(decomp)
                if answer is not None:
                    return answer
                continue
            y, kind = node.stall(), "stall"
            stats.stalls += 1
        elif y is None:
            act = node.pivot()
            if act.kind != "branch":
                node.move(act)
                continue
            y, kind = act.vertex, "branch"
        answer = None if decomp is not None else node.sweep(node.decompose())
        if answer is None:
            stats.branchings += 1
            answer = node.branch(y, kind, depth + 1)
        return answer
