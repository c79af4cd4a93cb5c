"""Brute-force reference implementations for differential testing.

These share no algorithmic code with the solvers: scores, domination and
coverage are re-derived from first principles by exhaustive enumeration.
Hard size guards raise instead of running forever.
"""

from __future__ import annotations

from itertools import combinations

from .counts import CountVector
from .csp import CspInstance, CspSolution
from .domset import C, N, U, LabeledGraph
from .graph import Graph
from .setcover import ScIncidence

GUARD = 10**7


def brute_max2csp(inst: CspInstance) -> CspSolution:
    """Exhaustive optimum; lexicographically smallest optimal assignment."""
    vs = inst.graph.vertices()
    r = inst.r
    if r ** len(vs) > GUARD:
        raise ValueError(f"{r}^{len(vs)} exceeds enumeration guard")
    best_score: int | None = None
    best_phi: dict[int, int] = {}
    phi: dict[int, int] = {}

    def rec(k: int, score: int) -> None:
        nonlocal best_score, best_phi
        if k == len(vs):
            if best_score is None or score > best_score:
                best_score = score
                best_phi = dict(phi)
            return
        v = vs[k]
        vec = inst.s_v[v]
        for color in range(r):
            extra = vec[color]
            for u in inst.graph.neighbors(v):
                if u in phi:  # so u < v: vertices are coloured in increasing order
                    extra += inst.s_e[(u, v)][phi[u] * r + color]
            phi[v] = color
            rec(k + 1, score + extra)
            del phi[v]

    rec(0, inst.s_nil)
    assert best_score is not None
    return CspSolution(best_score, best_phi)


def brute_domset(lg: LabeledGraph) -> CountVector:
    """Count dominating sets per size by enumerating all vertex subsets.

    A subset D is valid iff no N-labeled vertex is in D and every U- or
    N-labeled vertex has a closed-neighborhood intersection with D.
    """
    vs = lg.graph.vertices()
    n = len(vs)
    if 2**n > GUARD:
        raise ValueError(f"2^{n} exceeds enumeration guard")
    counts = [0] * (n + 1)
    for mask in range(2**n):
        chosen = {vs[i] for i in range(n) if mask >> i & 1}
        ok = True
        for v in vs:
            lab = lg.label[v]
            if lab == N and v in chosen:
                ok = False
                break
            if lab in (U, N):
                if v not in chosen and not any(
                    u in chosen for u in lg.graph.neighbors(v)
                ):
                    ok = False
                    break
        if ok:
            counts[len(chosen)] += 1
    return CountVector(counts)


def brute_setcover(inst: ScIncidence) -> CountVector:
    """Count covering subfamilies per cardinality (duplicate sets distinct)."""
    if inst.folded():
        raise ValueError("oracle requires an instance with no folded material")
    sets = sorted(inst.set_ids)
    elems = inst.element_ids()
    if 2 ** len(sets) > GUARD:
        raise ValueError(f"2^{len(sets)} exceeds enumeration guard")
    counts = [0] * (len(sets) + 1)
    for mask in range(2 ** len(sets)):
        chosen = {sets[i] for i in range(len(sets)) if mask >> i & 1}
        if all(
            any(s in chosen for s in inst.incidence.neighbors(e)) for e in elems
        ):
            counts[len(chosen)] += 1
    return CountVector(counts)


def brute_min_bisection(g: Graph) -> int:
    """Exact minimum cut over all ⌊n/2⌋ / ⌈n/2⌉ vertex splits."""
    vs = g.vertices()
    n = len(vs)
    if n > 12:
        raise ValueError("bisection oracle guard is n <= 12")
    if n <= 1:
        return 0
    edges = g.edges()
    best = len(edges)
    for half in combinations(vs, n // 2):
        a = set(half)
        cut = sum(1 for u, v in edges if (u in a) != (v in a))
        best = min(best, cut)
    return best


def brute_pathwidth(g: Graph) -> int:
    """Exact pathwidth via the vertex-separation-number subset DP."""
    vs = g.vertices()
    n = len(vs)
    if n > 16:
        raise ValueError("pathwidth oracle guard is n <= 16")
    if n == 0:
        return -1  # width of an empty decomposition
    idx = {v: i for i, v in enumerate(vs)}
    nbr_masks = [0] * n
    for v in vs:
        for u in g.neighbors(v):
            nbr_masks[idx[v]] |= 1 << idx[u]
    full = (1 << n) - 1
    f = [0] * (1 << n)
    for mask in range(1, 1 << n):
        outside = full ^ mask
        boundary = sum(
            1 for i in range(n) if mask >> i & 1 and nbr_masks[i] & outside
        )
        best = None
        for i in range(n):
            if mask >> i & 1:
                prev = f[mask ^ (1 << i)]
                cand = max(prev, boundary)
                if best is None or cand < best:
                    best = cand
        f[mask] = best
    return f[full]
