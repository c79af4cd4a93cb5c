"""Balanced separations (L,S,R) of bounded-degree graphs.

One algorithm: a path decomposition of width w has a bag that is a
balanced separator of at most w + 1 vertices, so a sweep over the bags
of a nice path decomposition stops at the first bag that balances the
forgotten vertices against the unseen ones.  Every engine separates
this way, from the decomposition its terminal check builds anyway:
``separate_balanced_by_measure`` balances a per-vertex weight up to a
cap, and ``separate_cubic`` is the unit-weight case.

Separator quality is heuristic; validity never is.  Every produced
separation passes ``verify_separation``; callers decide whether the
achieved balance/size is good enough.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def swap(self) -> None:
        self.left, self.right = self.right, self.left

    def restrict(self, keep: Iterable[int]) -> "Separation":
        """The separation that this one induces on the vertices in keep."""
        return Separation(self.left.intersection(keep), self.sep.intersection(keep),
                          self.right.intersection(keep))


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


def _fresh_order(adj: dict[int, tuple[int, ...]]) -> list[int]:
    """Isolated vertices first, then by id: untouched vertices in key order."""
    return sorted(adj, key=lambda v: (len(adj[v]) > 0, v))


def _greedy_layout(adj: dict[int, tuple[int, ...]], first: int, stop: int | None = None,
                   fresh: list[int] | None = None) -> tuple[list[int], int] | None:
    """Vertex order minimizing the running boundary, seeded at `first`.

    B = placed vertices with an unplaced neighbor.  Each step places the
    unplaced v of least key (|B after placing v|, -#placed neighbors, v):
    smallest boundary, then most placed neighbors, then smallest id.  |B|,
    the unplaced-neighbor counts and closed[v] (placed vertices whose only
    unplaced neighbor is v: they leave B when v is placed) are kept
    incrementally, so a key costs O(1); only the frontier (unplaced
    vertices with a placed neighbor, ≤ Δ·|B|) and the first untouched
    vertex of `fresh` (an untouched v has key (|B| + [deg v > 0], 0, v))
    are scored.  One start: O(n·Δ·width).

    The running width never falls, so with `stop` set the layout returns
    None as soon as its width reaches `stop`: exactly when the full
    layout's width would be ≥ `stop`.  `fresh`, the vertices in untouched
    key order, does not depend on the start; a caller with many starts
    passes ``_fresh_order(adj)`` to each, and it is sorted here otherwise.
    """
    unplaced = {v: len(nbrs) for v, nbrs in adj.items()}
    closed = dict.fromkeys(adj, 0)
    placed: set[int] = set()
    frontier: set[int] = set()
    if fresh is None:
        fresh = _fresh_order(adj)
    nxt = 0  # touched vertices never become untouched again
    order: list[int] = []
    boundary = width = 0

    def key(v: int) -> tuple[int, int, int]:
        return boundary - closed[v] + (unplaced[v] > 0), unplaced[v] - len(adj[v]), v

    def close(u: int) -> None:
        """u is placed with one unplaced neighbor left: credit that one."""
        closed[next(w for w in adj[u] if w not in placed)] += 1

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
            elif unplaced[u] == 1:
                close(u)
        if unplaced[current]:
            boundary += 1
            if unplaced[current] == 1:
                close(current)
        width = max(width, boundary)
        if stop is not None and width >= stop:
            return None
        if len(order) == len(adj):
            return order, width
        while nxt < len(fresh) and (fresh[nxt] in placed or fresh[nxt] in frontier):
            nxt += 1
        current = min([*frontier, *fresh[nxt:nxt + 1]], key=key)


# The state budget of the engines' sweeps: a piece is counted directly
# instead of branched on when its sweep holds at most 3^(PD_WIDTH_CAP+1)
# states.  Each engine's ``narrow`` reads it with its own states per bag
# vertex: #DS (3) up to width 8, set cover (2) up to 13, Max 2-CSP (r)
# while r^(width+1) fits.
PD_WIDTH_CAP = 8
# The greedy layout starts from each of this many smallest ids.
PD_STARTS = 16


def nice_path_decomposition(g: Graph) -> PathDecomposition:
    """Greedy-layout path decomposition, nicified (consecutive bags differ by 1).

    Multi-start over the PD_STARTS smallest ids as forced first vertex; each
    start runs ``_greedy_layout`` (key and cost there) on one shared
    adjacency snapshot and one shared untouched order, and the smallest
    width wins, ties to the earliest start.  The first start runs to the
    end; each later one stops as soon as its width reaches the best width
    so far.  A layout's running width never falls, so a dropped start
    could at best tie, and a tie loses to the earlier start: the winner is
    the same as with every start run to the end.  ``path_decomposition``
    turns the winning order into bags.
    """
    vs = g.vertices()
    if not vs:
        return PathDecomposition([])
    adj = {v: g.neighbors(v) for v in vs}
    fresh = _fresh_order(adj)
    best = _greedy_layout(adj, vs[0], None, fresh)
    for first in vs[1:PD_STARTS]:
        best = _greedy_layout(adj, first, best[1], fresh) or best
    return path_decomposition(g, best[0])


def path_decomposition(g: Graph, order: list[int]) -> PathDecomposition:
    """Nice path decomposition of g along a vertex order.

    Raw bag i is {v_i} ∪ (earlier vertices with a neighbor at position
    ≥ i), so a vertex leaves after the later of its own position and its
    last neighbor's.  One sweep steps from raw bag to raw bag a vertex at
    a time: it forgets (by id) what leaves, then introduces v_i.
    """
    adj = g.neighbor_sets()
    pos = {v: i for i, v in enumerate(order)}
    leave: list[list[int]] = [[] for _ in range(len(order) + 1)]
    for i, v in enumerate(order):
        leave[max([i, *(pos[u] for u in adj[v])]) + 1].append(v)
    bags: list[frozenset[int]] = []
    cur: frozenset[int] = frozenset()
    for i, v in enumerate(order):
        for u in sorted(leave[i]):
            cur = cur - {u}
            bags.append(cur)
        cur = cur | {v}
        bags.append(cur)
    decomp = PathDecomposition(bags)
    decomp.validate(g)
    assert len(bags) <= 2 * g.n + 1
    return decomp


def _linear_order(g: Graph) -> list[int]:
    """Walk order of a graph of max degree <= 2: each path from an end,
    then each cycle from its smallest vertex.  Along it a path has width 1
    and a cycle width 2."""
    adj = g.neighbor_sets()
    vs = g.vertices()
    order: list[int] = []
    seen: set[int] = set()
    for start in [v for v in vs if len(adj[v]) <= 1] + vs:
        cur = start if start not in seen else None
        while cur is not None:
            order.append(cur)
            seen.add(cur)
            cur = min((u for u in adj[cur] if u not in seen), default=None)
    return order


def separate_balanced_by_measure(
    g: Graph,
    weight: Callable[[int], Fraction],
    cap: Fraction,
    decomp: PathDecomposition,
) -> Separation:
    """Bag-sweep separation with |μ_r(L) - μ_r(R)| ≤ cap from `decomp`, a
    nice path decomposition of g that the caller builds and may use for
    other work too.  Needs max degree ≤ 6 and 0 ≤ weight ≤ cap per vertex."""
    return _sweep(g, {v: Fraction(weight(v)) for v in g.vertices()}, cap, decomp)


def separate_cubic(g: Graph, decomp: PathDecomposition) -> Separation:
    """The unit-weight sweep (weight 1, cap 1), for max degree ≤ 6:
    |L| ≤ |R| ≤ |L| + 1.

    The name stays for the benchmark: ``perfbench/tracer.py`` wraps
    ``smc.separator:separate_cubic``, and its test
    ``test_tracer_rebinds_every_importer_and_restores`` needs ``smc.cli``
    and ``smc.csp_solve`` to import it and ``csp-cubic`` seed 5 to call
    it.  Neither public name calls the other: one span per separation."""
    return _sweep(g, dict.fromkeys(g.vertices(), 1), 1, decomp)


def _sweep(g: Graph, w: dict[int, Fraction | int], cap: Fraction | int,
           decomp: PathDecomposition) -> Separation:
    """The first bag S of `decomp` with |μ(L) - μ(R)| ≤ cap, where L is
    the forgotten vertices (μ_L, μ_S kept as running sums); the lighter
    side is returned as L."""
    if g.max_degree() > 6:
        raise ValueError("the bag sweep requires max degree <= 6")
    vs = g.vertices()
    if not vs:
        return Separation(set(), set(), set())
    if any(wv < 0 for wv in w.values()):
        raise ValueError("weights must be nonnegative")
    bad = [v for v in vs if w[v] > cap]
    if bad:
        raise ValueError(f"per-vertex weight exceeds cap at {bad[:3]}")
    total = sum(w.values())
    mu_l = mu_s = 0
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
