"""Balanced separations (L,S,R) of bounded-degree graphs.

Two routes:
  * ``separate_cubic``: bisection heuristic + vertex cover of the cut, for
    max-degree-3 graphs (the branching solvers' workhorse);
  * ``separate_balanced_by_measure``: bag sweep over a nice path
    decomposition, balancing an arbitrary per-vertex weight up to a cap B.

Separator quality is heuristic; validity never is.  Every produced
separation passes ``verify_separation``; callers decide whether the
achieved balance/size is good enough.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .graph import Graph


@dataclass
class Separation:
    left: set[int]
    sep: set[int]
    right: set[int]

    def copy(self) -> "Separation":
        return Separation(set(self.left), set(self.sep), set(self.right))

    def side_of(self, v: int) -> str:
        if v in self.left:
            return "L"
        if v in self.sep:
            return "S"
        if v in self.right:
            return "R"
        raise KeyError(f"vertex {v} not in separation")

    def discard(self, v: int) -> None:
        self.left.discard(v)
        self.sep.discard(v)
        self.right.discard(v)

    def vertices(self) -> set[int]:
        return self.left | self.sep | self.right

    def swap(self) -> None:
        self.left, self.right = self.right, self.left


def trivial_separation(vertices: Iterable[int]) -> Separation:
    """(∅, ∅, V): everything on the right, so μ_r(L) ≤ μ_r(R) trivially."""
    return Separation(set(), set(), set(vertices))


def verify_separation(g: Graph, s: Separation) -> bool:
    """True iff s partitions V(g) (else ValueError) and no L-R edge exists."""
    parts = [s.left, s.sep, s.right]
    total = sum(len(p) for p in parts)
    union = s.left | s.sep | s.right
    if total != len(union) or union != set(g.vertices()):
        raise ValueError("separation must partition the vertex set")
    return not any(
        u in s.right for v in s.left for u in g.neighbors(v)
    )


# -- bisection ------------------------------------------------------------------


@dataclass
class Bisection:
    a: list[int]
    b: list[int]
    cut: int


def _cut_size(g: Graph, in_a: dict[int, bool]) -> int:
    return sum(1 for u, v in g.edges() if in_a[u] != in_a[v])


def _refine(g: Graph, in_a: dict[int, bool]) -> None:
    """Hill-climb on A/B swaps (size-preserving) until no swap helps."""
    vs = g.vertices()
    while True:
        d = {}
        for v in vs:
            ext = sum(1 for u in g.neighbors(v) if in_a[u] != in_a[v])
            d[v] = 2 * ext - g.degree(v)  # ext - int
        best_gain, best_pair = 0, None
        for x in vs:
            if not in_a[x]:
                continue
            for y in vs:
                if in_a[y]:
                    continue
                gain = d[x] + d[y] - 2 * (1 if g.has_edge(x, y) else 0)
                if gain > best_gain:
                    best_gain, best_pair = gain, (x, y)
        if best_pair is None:
            return
        x, y = best_pair
        in_a[x], in_a[y] = False, True


def _bfs_order(g: Graph, start: int) -> list[int]:
    order, seen, frontier = [start], {start}, [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    order.append(u)
                    nxt.append(u)
        frontier = nxt
    return order


def bisect_heuristic(g: Graph, seed: int = 0, starts: int = 8) -> Bisection:
    """Split V into halves (sizes differing by ≤ 1) with a small edge cut.

    Multi-start local search: one BFS-ball start (exact on cycles) plus
    seeded random starts, each refined by swap hill-climbing.  Fully
    deterministic for a given seed.
    """
    vs = g.vertices()
    n = len(vs)
    if n == 0:
        return Bisection([], [], 0)
    half = (n + 1) // 2
    rng = random.Random(seed)

    candidates: list[list[int]] = []
    bfs = []
    for comp_start in vs:  # BFS order covering all components
        if comp_start not in bfs:
            bfs.extend(_bfs_order(g, comp_start))
    candidates.append(bfs)
    for _ in range(max(0, starts - 1)):
        order = list(vs)
        rng.shuffle(order)
        candidates.append(order)

    best: Bisection | None = None
    for order in candidates:
        in_a = {v: False for v in vs}
        for v in order[:half]:
            in_a[v] = True
        _refine(g, in_a)
        cut = _cut_size(g, in_a)
        if best is None or cut < best.cut:
            best = Bisection(
                sorted(v for v in vs if in_a[v]),
                sorted(v for v in vs if not in_a[v]),
                cut,
            )
    return best


# -- cubic separation -------------------------------------------------------------


def separate_cubic(g: Graph, seed: int = 0) -> Separation:
    """Separation of a max-degree-3 graph from a bisection's cut cover.

    S = greedy vertex cover of the cut edges; sides rebalanced so that
    |L|, |R| ≤ ⌈(|V|-|S|)/2⌉.  Smaller side returned as left.
    """
    if g.max_degree() > 3:
        raise ValueError("separate_cubic requires max degree <= 3")
    if g.n == 0:
        return Separation(set(), set(), set())
    bis = bisect_heuristic(g, seed=seed)
    side_a = set(bis.a)
    uncovered = {(u, v) for u, v in g.edges() if (u in side_a) != (v in side_a)}
    sep: set[int] = set()
    left = set(bis.a)
    right = set(bis.b)
    while uncovered:
        cover_count: dict[int, int] = {}
        for u, v in uncovered:
            cover_count[u] = cover_count.get(u, 0) + 1
            cover_count[v] = cover_count.get(v, 0) + 1
        # most cut edges covered; ties: side with more vertices left, then
        # smallest id (keeps the sides from being eaten one-sidedly when the
        # cut is a matching)
        best = min(
            cover_count,
            key=lambda v: (
                -cover_count[v],
                -len(left if v in side_a else right),
                v,
            ),
        )
        sep.add(best)
        (left if best in side_a else right).discard(best)
        uncovered = {e for e in uncovered if best not in e}
    while max(len(left), len(right)) > -(-(g.n - len(sep)) // 2):
        # The cap is at least the side average, so entering the loop forces
        # |big| >= |small| + 2; absorbing keeps |small| < |big|, so
        # (max side, |S|) decreases lexicographically and the loop halts.
        big, small = (left, right) if len(left) > len(right) else (right, left)
        absorbable = [s for s in sep if all(u not in big for u in g.neighbors(s))]
        if absorbable:
            s_abs = min(absorbable)
            sep.discard(s_abs)
            small.add(s_abs)
        else:
            moved = min(big)
            big.discard(moved)
            sep.add(moved)
    if len(right) < len(left):
        left, right = right, left
    s = Separation(left, sep, right)
    assert verify_separation(g, s)
    return s


# -- path decompositions -----------------------------------------------------------


@dataclass
class PathDecomposition:
    bags: list[frozenset[int]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def validate(self, g: Graph, nice: bool = True) -> None:
        """ValueError unless a (nice) path decomposition of g; O(n+m+Σ|bag|)."""
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for i, bag in enumerate(self.bags):
            for v in bag:
                if v not in g:
                    raise ValueError(f"bag {i} holds vertex {v}, which is not in the graph")
                if v in last and last[v] != i - 1:
                    raise ValueError(f"vertex {v} lacks a contiguous nonempty interval")
                first.setdefault(v, i)
                last[v] = i
        for v in g.vertices():
            if v not in first:
                raise ValueError(f"vertex {v} lacks a contiguous nonempty interval")
        for u, v in g.edges():  # intervals are contiguous: covered iff they overlap
            if max(first[u], first[v]) > min(last[u], last[v]):
                raise ValueError(f"edge ({u},{v}) not inside any bag")
        if nice:
            for i in range(1, len(self.bags)):
                if len(self.bags[i] ^ self.bags[i - 1]) != 1:
                    raise ValueError(f"bags {i-1},{i} differ by != 1 vertex")


def _greedy_layout(adj: dict[int, tuple[int, ...]], first: int) -> tuple[list[int], int]:
    """Vertex order minimizing the running boundary, seeded at `first`.

    B = placed vertices with an unplaced neighbor.  Each step places the
    unplaced v of least key (|B after placing v|, -#placed neighbors, v):
    smallest boundary, then most placed neighbors, then smallest id.  With
    B and unplaced-neighbor counts kept incrementally a key costs O(deg v);
    only the frontier (unplaced vertices with a placed neighbor, ≤ Δ·|B|)
    and the first untouched vertex of `fresh` (an untouched v has key
    (|B| + [deg v > 0], 0, v)) are scored.  One start: O(n·Δ²·width).
    """
    unplaced = {v: len(nbrs) for v, nbrs in adj.items()}
    placed: set[int] = set()
    frontier: set[int] = set()
    fresh = sorted(adj, key=lambda v: (len(adj[v]) > 0, v))
    nxt = 0  # touched vertices never become untouched again
    order: list[int] = []
    boundary = width = 0

    def key(v: int) -> tuple[int, int, int]:
        nbrs = adj[v]
        closed = sum(1 for u in nbrs if unplaced[u] == 1 and u in placed)
        return boundary - closed + (unplaced[v] > 0), unplaced[v] - len(nbrs), v

    current = first
    while True:
        order.append(current)
        placed.add(current)
        frontier.discard(current)
        for u in adj[current]:
            unplaced[u] -= 1
            if u not in placed:
                frontier.add(u)
            elif not unplaced[u]:
                boundary -= 1
        if unplaced[current]:
            boundary += 1
        width = max(width, boundary)
        if len(order) == len(adj):
            return order, width
        while nxt < len(fresh) and (fresh[nxt] in placed or fresh[nxt] in frontier):
            nxt += 1
        current = min([*frontier, *fresh[nxt:nxt + 1]], key=key)


def nice_path_decomposition(g: Graph, starts: int = 16) -> PathDecomposition:
    """Greedy-layout path decomposition, nicified (consecutive bags differ by 1).

    Multi-start over the `starts` smallest ids as forced first vertex; each
    start runs ``_greedy_layout`` (key and cost there) on one shared
    adjacency snapshot, and the smallest width wins, ties to the earliest
    start.  Raw bag i is {v_i} ∪ (placed vertices with a neighbor at
    position ≥ i); one sweep builds it and steps to it a vertex at a time,
    forgets (by id) before introduces (by id).
    """
    vs = g.vertices()
    if not vs:
        return PathDecomposition([])
    adj = {v: g.neighbors(v) for v in vs}
    order, _ = min((_greedy_layout(adj, first) for first in vs[:starts]), key=lambda ow: ow[1])
    pos = {v: i for i, v in enumerate(order)}
    last = {v: max((pos[u] for u in nbrs), default=-1) for v, nbrs in adj.items()}
    bags: list[frozenset[int]] = []
    cur: frozenset[int] = frozenset()
    active: set[int] = set()  # placed vertices with a neighbor at position ≥ i
    for i, v in enumerate(order):
        active = {u for u in active if last[u] >= i}
        raw = active | {v}
        for u in sorted(cur - raw):
            cur = cur - {u}
            bags.append(cur)
        for u in sorted(raw - cur):
            cur = cur | {u}
            bags.append(cur)
        active.add(v)
    decomp = PathDecomposition(bags)
    decomp.validate(g)
    assert len(bags) <= 2 * g.n + 1
    return decomp


def separate_balanced_by_measure(
    g: Graph,
    weight: Callable[[int], Fraction],
    cap: Fraction,
) -> Separation:
    """Bag-sweep separation with |μ_r(L) - μ_r(R)| ≤ cap.

    Requires max degree ≤ 6 and per-vertex weight ≤ cap (the sweep's
    balance argument needs both).  First balanced bag wins.  L is the set
    of forgotten vertices; μ_L and μ_S are kept as running sums.
    """
    if g.max_degree() > 6:
        raise ValueError("separate_balanced_by_measure requires max degree <= 6")
    vs = g.vertices()
    if not vs:
        return Separation(set(), set(), set())
    w = {v: Fraction(weight(v)) for v in vs}
    if any(wv < 0 for wv in w.values()):
        raise ValueError("weights must be nonnegative")
    bad = [v for v in vs if w[v] > cap]
    if bad:
        raise ValueError(f"per-vertex weight exceeds cap at {bad[:3]}")
    decomp = nice_path_decomposition(g)
    total = sum(w.values())
    mu_l = mu_s = Fraction(0)
    forgotten: list[int] = []
    prev: frozenset[int] = frozenset()
    for bag in decomp.bags:
        for v in bag - prev:
            mu_s += w[v]
        for v in prev - bag:  # intervals are contiguous: v never returns
            mu_s -= w[v]
            mu_l += w[v]
            forgotten.append(v)
        prev = bag
        mu_r = total - mu_l - mu_s
        if abs(mu_l - mu_r) <= cap:
            left = set(forgotten)
            right = {v for v in vs if v not in left and v not in bag}
            if mu_l > mu_r:
                left, right = right, left
            s = Separation(left, set(bag), right)
            assert verify_separation(g, s)
            return s
    raise AssertionError("bag sweep found no balanced separation")
