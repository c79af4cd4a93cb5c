"""Adversarial lower-bound families and random instance generators.

Three deterministic graph families pin the local (non-separator) branching
algorithm from below: a cubic family g3(n) costing r^{n/4} leaves, a
max-degree-4 family g4(n3, n4) costing r^{n4/2 - 2 + n3/4}, and a
max-degree-5 family g5(n) costing r^{19n/40 - 2}.  ``trace_lower_bound``
replays the adversarial pivot schedule on the graph skeleton and counts
the degree->=3 splits exactly; the random generators feed the differential
test corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from smc.csp import CspInstance, zero_instance
from smc.graph import Graph

__all__ = [
    "LbStep",
    "LbTrace",
    "skeleton_closure",
    "gen_g3",
    "gen_g4",
    "gen_g5",
    "trace_lower_bound",
    "expected_branchings",
    "gen_random_cubic",
    "csp_on_graph",
    "gen_random_csp",
]


# -- lower-bound families ------------------------------------------------------
#
# Vertex ids follow the construction labels: a_i is id i-1 within each family,
# the x-path of g4 occupies the ids right after the a's, and the y's of g5 sit
# on top of its g4 core.  The tracer relies on this layout.


def gen_g3(n: int) -> Graph:
    """Cubic family: a cycle on the a_i with i not divisible by 4, plus n/4
    hub vertices a_{4i} each adjacent to the three preceding cycle vertices.

    gen_g3(4) is K4; every split on the top hub followed by the degree-2
    closure shrinks the family by exactly four vertices.
    """
    if n < 4 or n % 4:
        raise ValueError("g3 needs n divisible by 4, n >= 4")
    g = Graph(range(n))
    ring = [i for i in range(n) if i % 4 != 3]
    for t, u in enumerate(ring):
        g.add_edge(u, ring[(t + 1) % len(ring)])
    for h in range(3, n, 4):
        for u in (h - 3, h - 2, h - 1):
            g.add_edge(h, u)
    return g


def gen_g4(n3: int, n4: int) -> Graph:
    """Max-degree-4 family: g3(n3) with the matching a_1a_2, a_3a_4, ...,
    a_{n4-1}a_{n4} unzipped onto a path of new vertices x_2..x_{n4}.

    Each x_j is adjacent to a_j (x_2 also to a_1) and even-indexed x_j trade
    an extra pair of edges with x_{j-1}'s partner, so every a_i with i <= n4
    recovers degree 4 except a_1 and a_2.  gen_g4(n3, 0) == gen_g3(n3).
    """
    if n3 < 4 or n3 % 4 or n4 < 0 or n4 % 2 or n4 > n3:
        raise ValueError("g4 needs n3 divisible by 4 and even n4 <= n3")
    g = gen_g3(n3)
    if n4 == 0:
        return g

    def a(i: int) -> int:
        return i - 1

    def x(j: int) -> int:
        return n3 + j - 2

    for i in range(1, n4, 2):
        g.remove_edge(a(i), a(i + 1))
    for j in range(2, n4 + 1):
        g.add_vertex(x(j))
    for j in range(2, n4):
        g.add_edge(x(j), x(j + 1))
    for j in range(2, n4 + 1):
        g.add_edge(x(j), a(j))
    g.add_edge(x(2), a(1))
    for j in range(4, n4 + 1, 2):
        g.add_edge(x(j), a(j - 1))
        g.add_edge(x(j - 1), a(j))
    return g


def gen_g5(n: int) -> Graph:
    """Max-degree-5 family: the core g4(n/2, 3n/10) plus n/5 new y vertices.

    The y's alternate with the core's remaining degree-3 a's on a new cycle,
    then each y gains three extra edges assigned round-robin to the
    lowest-indexed vertices of the core's a/x pool with degree < 5 (every
    vertex's first spare slot is used before any second slot).  The maximum
    degree stays 5 and y_1 ends up adjacent to a degree-4 vertex, which keeps
    the minimum-index y pivot legal at every step of the trace.
    """
    if n < 40 or n % 40:
        raise ValueError("g5 needs n divisible by 40")
    big3, big4 = n // 2, 3 * n // 10
    n5 = n // 5
    g = gen_g4(big3, big4)
    base = big3 + big4 - 1
    ys = [base + i for i in range(n5)]
    for y in ys:
        g.add_vertex(y)
    # pool degrees are still the core's: the y-cycle below only touches the
    # a's with index above 3n/10, which are disjoint from the pool
    pool = list(range(big4)) + [big3 + j for j in range(big4 - 1)]
    seconds = sorted(v for v in pool if g.degree(v) == 3)
    ring_a = [big4 + i for i in range(n5)]
    for i in range(n5):
        g.add_edge(ys[i], ring_a[i])
        g.add_edge(ys[(i + 1) % n5], ring_a[i])
    units = pool + seconds
    k = 0
    for y in ys:
        for _ in range(3):
            g.add_edge(y, units[k])
            k += 1
    return g


# -- adversarial trace ---------------------------------------------------------


@dataclass
class LbStep:
    pivot: int
    degree: int
    order_after: int
    guard_ok: bool


@dataclass
class LbTrace:
    """One adversarial root-to-leaf path: the total leaf count of the local
    algorithm on the family is r ** reduction3_count."""

    family: str
    reduction3_count: int = 0
    steps: list[LbStep] = field(default_factory=list)

    @property
    def guard_failures(self) -> list[int]:
        return [t for t, s in enumerate(self.steps) if not s.guard_ok]

    def leaves(self, r: int) -> int:
        return r**self.reduction3_count


def skeleton_closure(g: Graph) -> None:
    """Degree <= 2 closure on the skeleton: isolated and pendant vertices are
    deleted, degree-2 vertices are suppressed (neighbours joined)."""
    while True:
        low = [v for v in g.vertices() if g.degree(v) <= 2]
        if not low:
            return
        v = low[0]
        nbrs = g.neighbors(v)
        g.delete_vertex(v)
        if len(nbrs) == 2 and not g.has_edge(*nbrs):
            g.add_edge(*nbrs)


def _guard(g: Graph, pivot: int) -> bool:
    """Pivot legality for a max-degree rule that prefers pivots with a
    lower-degree neighbour: the pivot must have maximum degree, and must have
    such a neighbour whenever any maximum-degree vertex does."""
    dmax = g.max_degree()
    if g.degree(pivot) != dmax:
        return False
    if dmax <= 3:
        return True

    def prefers(v: int) -> bool:
        return any(g.degree(u) < dmax for u in g.neighbors(v))

    if prefers(pivot):
        return True
    return not any(prefers(v) for v in g.vertices() if g.degree(v) == dmax)


def expected_branchings(family: str, params: tuple[int, ...]) -> int:
    """Closed-form branch count for the adversarial schedule."""
    if family == "g3":
        (n,) = params
        return n // 4
    if family == "g4":
        n3, n4 = params
        # below n4 = 4 the x-path dissolves by reductions alone
        return n3 // 4 if n4 < 4 else n4 // 2 - 2 + n3 // 4
    if family == "g5":
        (n,) = params
        return 19 * n // 40 - 2
    raise ValueError(f"unknown family {family!r}")


def trace_lower_bound(family: str, params: tuple[int, ...]) -> LbTrace:
    """Replay the adversarial pivot schedule on the member of `family`
    ("g3", "g4" or "g5") that its generator builds from `params`.

    Runs the local-policy skeleton (a split deletes the pivot, then the
    degree <= 2 closure fires) choosing pivots the way the lower-bound
    argument does: the minimum-index y while y's remain, then x_{n4-1} while
    at least five x's remain, then the first hub a_4 to dissolve the last
    three x's, and finally the top-index hub of the shrinking cubic core.
    Every step records whether the pivot was legal for the preference-guarded
    max-degree rule; failures are reported in the trace, never hidden.
    """
    gen = {"g3": gen_g3, "g4": gen_g4, "g5": gen_g5}.get(family)
    if gen is None:
        raise ValueError(f"unknown family {family!r}")
    work = gen(*params)
    xs: set[int] = set()
    ys: set[int] = set()
    if family == "g4":
        n3, n4 = params
        xs = set(range(n3, n3 + max(0, n4 - 1)))
    elif family == "g5":
        big3, big4 = params[0] // 2, 3 * params[0] // 10
        xs = set(range(big3, big3 + big4 - 1))
        ys = set(range(big3 + big4 - 1, big3 + big4 - 1 + params[0] // 5))

    trace = LbTrace(family=family)
    skeleton_closure(work)
    while work.n:
        live = set(work.vertices())
        xs &= live
        ys &= live
        if ys:
            pivot = min(ys)
        elif len(xs) >= 5:
            pivot = sorted(xs)[-2]
        elif xs:
            # exactly three x's left: the schedule pivots the first hub and
            # lets the cascade of suppressions absorb the rest of the path
            assert len(xs) == 3, f"unexpected x-path state {sorted(xs)}"
            pivot = 3
        else:
            pivot = max(live)
        degree = work.degree(pivot)
        ok = _guard(work, pivot)
        work.delete_vertex(pivot)
        skeleton_closure(work)
        trace.steps.append(LbStep(pivot, degree, work.n, ok))
    trace.reduction3_count = sum(1 for s in trace.steps if s.degree >= 3)
    return trace


# -- random corpus -------------------------------------------------------------


def gen_random_cubic(n: int, seed: int) -> Graph:
    """Random simple 3-regular graph (pairing model with rejection)."""
    if n < 4 or n % 2:
        raise ValueError("cubic graphs need even n >= 4")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {
            (min(a, b), max(a, b))
            for a, b in zip(stubs[0::2], stubs[1::2])
        }
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            return Graph(range(n), pairs)


def csp_on_graph(
    g: Graph, r: int, seed: int, lo: int = -5, hi: int = 5
) -> CspInstance:
    """Uniform integer scores on a fixed constraint graph."""
    if r < 2:
        raise ValueError("need r >= 2 colors")
    rng = random.Random(seed)
    inst = zero_instance(r, g)
    inst.s_nil = rng.randint(lo, hi)
    inst.s_v = {
        v: tuple(rng.randint(lo, hi) for _ in range(r)) for v in g.vertices()
    }
    inst.s_e = {
        e: tuple(rng.randint(lo, hi) for _ in range(r * r)) for e in g.edges()
    }
    return inst


def gen_random_csp(n: int, m: int, r: int, seed: int) -> CspInstance:
    """Random instance: m distinct edges on n vertices, uniform small scores."""
    if n < 0 or m < 0 or m > n * (n - 1) // 2:
        raise ValueError("infeasible parameters")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(range(n), rng.sample(pairs, m))
    return csp_on_graph(g, r, rng.randrange(2**32))
