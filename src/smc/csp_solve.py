"""Exact Max 2-CSP solving: separator-driven branching plus the plain
max-degree outer loop for instances of degree ≥ 4.

The subcubic engine maintains a separation (L,S,R) alongside the
instance.  Degree ≤ 2 vertices are folded away first; when the separator
empties, the engine splits components, brute-forces constant-size
instances, or recomputes a separator; otherwise the next pivot comes
from the shared separator-case ladder.

Scores are exact (arbitrary-precision) integers throughout, so
"overflow" cannot silently wrap.  Policy "local" disables all separator
machinery and branches on a smallest-id maximum-degree vertex, which is
the baseline the adversarial trace analysis applies to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .csp import (
    CspInstance,
    CspSolution,
    reduce0,
    reduceI,
    reduceII,
    reduceIII,
    restrict,
)
from .graph import Graph, connected_components
from .measures import csp_eta, csp_mu
from .policy import PivotAction, deg3_side_counts, separator_case
from .separator import Separation, separate_cubic, trivial_separation, verify_separation
from .weights import CspWeights

BRUTE_LIMIT = 8
MU_REL_SLACK = 1e-9

_HARD_KINDS = frozenset({
    "reduce0", "reduceI", "reduceII", "drag-R", "drag-L", "rotate",
    "branch", "brute", "leaf",
})


@dataclass
class SolveStats:
    branchings: int = 0
    leaves: int = 0  # assignments examined at terminal nodes
    tree_leaves: int = 0  # terminal nodes themselves; a brute-forced piece counts once
    max_depth: int = 0
    separator_recomputes: int = 0
    measure_trace: list[float] | None = None


@dataclass
class AuditEntry:
    kind: str
    hard: bool
    mu_ok: bool
    eta_ok: bool
    mu_parent: float | None
    mu_children: tuple[float, ...]
    eta_parent: int
    eta_children: tuple[int, ...]
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.mu_ok and self.eta_ok


class CspAudit:
    """Per-step measure bookkeeping for the subcubic engine.

    Hard steps must satisfy Σ_j r^{μ(I_j)} ≤ r^{μ(I)} (relative slack
    1e-9) and drop η by at least 1; component splits and re-separations
    are recorded with the same numbers but only logged, since the
    analysis bounds them by separator quality, not by the weight system.
    Steps on graphs of degree ≥ 4 carry no μ (the measure is defined for
    the subcubic phase only).
    """

    def __init__(self, weights: CspWeights | None = None, strict: bool = False):
        self.weights = weights or CspWeights.published()
        self.strict = strict
        self.entries: list[AuditEntry] = []

    @property
    def violations(self) -> list[AuditEntry]:
        return [e for e in self.entries if e.hard and not e.ok]

    def record(self, kind: str, r: int,
               parent: tuple[Graph, Separation],
               children: list[tuple[Graph, Separation]],
               eta_exempt: bool = False, note: str = "") -> float | None:
        hard = kind in _HARD_KINDS
        gp, sp = parent
        subcubic = gp.max_degree() <= 3 and all(
            gc.max_degree() <= 3 for gc, _ in children)
        mu_p = mu_cs = None
        mu_ok = True
        if subcubic:
            mu_p = float(csp_mu(gp, sp, self.weights))
            mu_cs = tuple(float(csp_mu(gc, sc, self.weights))
                          for gc, sc in children)
            mu_ok = (sum(r ** m for m in mu_cs)
                     <= (r ** mu_p) * (1.0 + MU_REL_SLACK))
        eta_p = csp_eta(gp, sp)
        eta_cs = tuple(csp_eta(gc, sc) for gc, sc in children)
        eta_ok = eta_exempt or all(e <= eta_p - 1 for e in eta_cs)
        entry = AuditEntry(kind, hard, mu_ok, eta_ok, mu_p, mu_cs or (),
                           eta_p, eta_cs, note)
        self.entries.append(entry)
        if self.strict and hard and not entry.ok:
            raise AssertionError(f"measure audit violation at {kind}: {entry}")
        return mu_p


@dataclass
class _Env:
    policy: str
    stats: SolveStats
    audit: CspAudit | None
    seed: int


def _asg_key(asg: dict[int, int]) -> tuple:
    return tuple(sorted(asg.items()))


def _simplify_action(g: Graph, sep: Separation | None) -> PivotAction | None:
    for target in (0, 1, 2):
        found = [v for v in g.vertices() if g.degree(v) == target]
        if not found:
            continue
        y = min(found)
        kind = ("reduce0", "reduceI", "reduceII")[target]
        partner = None
        if target == 2 and sep is not None and sep.side_of(y) == "S":
            sides = sorted(sep.side_of(u) for u in g.neighbors(y))
            if sides == ["L", "R"]:
                partner = next(u for u in g.neighbors(y)
                               if sep.side_of(u) == "R")
        return PivotAction(kind, y, partner)
    return None


def select_pivot(inst: CspInstance, sep: Separation) -> PivotAction:
    """Next action for the subcubic engine, excluding the S=∅ stage.

    Degree ≤ 2 simplifications come first (smallest id, lowest degree
    first); a degree-2 separator vertex with one endpoint in L and one in
    R carries its R-endpoint as the separator repair.  On a 3-regular
    graph the separator-case ladder decides; an empty separator is the
    caller's signal to re-separate.
    """
    act = _simplify_action(inst.graph, sep)
    if act is not None:
        return act
    return separator_case(inst.graph, sep)


def _brute_best(inst: CspInstance) -> tuple[int, dict[int, int]]:
    """Exhaustive optimum with incremental scoring; ascending color order
    keeps the first-found optimum lexicographically smallest."""
    vs = inst.graph.vertices()
    best_score = None
    best_asg: dict[int, int] = {}
    asg: dict[int, int] = {}

    def go(idx: int, acc: int):
        nonlocal best_score, best_asg
        if idx == len(vs):
            if best_score is None or acc > best_score:
                best_score, best_asg = acc, dict(asg)
            return
        v = vs[idx]
        base = inst.s_v[v]
        for c in range(inst.r):
            gain = base[c]
            for u in inst.graph.neighbors(v):
                if u in asg:
                    gain += inst.edge_score(u, v, asg[u], c)
            asg[v] = c
            go(idx + 1, acc + gain)
        del asg[v]

    go(0, inst.s_nil)
    return best_score, best_asg


def _sub_separation(sep: Separation, comp: set[int]) -> Separation:
    return Separation(sep.left & comp, sep.sep & comp, sep.right & comp)


def _rec_cubic(inst: CspInstance, sep: Separation, env: _Env,
               depth: int, resep_n: int = -1) -> tuple[int, dict[int, int]]:
    env.stats.max_depth = max(env.stats.max_depth, depth)
    g = inst.graph
    audit = env.audit
    if audit is not None:
        assert verify_separation(g, sep), "separation invalid at recursive call"
    if g.n == 0:
        env.stats.leaves += 1
        env.stats.tree_leaves += 1
        if audit is not None:
            audit.record("leaf", inst.r, (g, sep), [])
        return inst.s_nil, {}

    l3, r3 = deg3_side_counts(g, sep)
    if l3 > r3:
        sep.swap()

    act = _simplify_action(g, sep)
    if act is None and not sep.sep:
        comps = connected_components(g)
        if len(comps) > 1:
            children = [(restrict(inst, comp), _sub_separation(sep, set(comp)))
                        for comp in comps]
            if audit is not None:
                mu = audit.record("split", inst.r, (g, sep),
                                  [(ci.graph, cs) for ci, cs in children],
                                  eta_exempt=True)
                _trace(env, mu)
            score = inst.s_nil
            asg: dict[int, int] = {}
            for ci, cs in children:
                s, a = _rec_cubic(ci, cs, env, depth + 1)
                score += s
                asg.update(a)
            return score, asg
        if g.n <= BRUTE_LIMIT:
            env.stats.leaves += inst.r ** g.n
            env.stats.tree_leaves += 1
            if audit is not None:
                mu = audit.record("brute", inst.r, (g, sep), [])
                _trace(env, mu)
            return _brute_best(inst)
        if g.n != resep_n:
            sep2 = separate_cubic(g, seed=env.seed)
            env.stats.separator_recomputes += 1
            if audit is not None:
                mu = audit.record("reseparate", inst.r, (g, sep), [(g, sep2)],
                                  eta_exempt=True)
                _trace(env, mu)
            return _rec_cubic(inst, sep2, env, depth + 1, resep_n=g.n)
        # Separating this graph already led back here with nothing removed
        # (the case ladder consumed the whole separator), so separating
        # again would repeat the cycle.  Branch on one vertex to shrink the
        # graph; outside the analyzed cases, hence a soft step.
        y = min(v for v in g.vertices() if g.degree(v) == g.max_degree())
        children3 = reduceIII(inst, y)
        env.stats.branchings += 1
        seps3 = [_drop(sep, y) for _ in children3]
        if audit is not None:
            mu = audit.record("stall", inst.r, (g, sep),
                              [(ci.graph, s2)
                               for (ci, _), s2 in zip(children3, seps3)],
                              note="re-separation made no progress")
            _trace(env, mu)
        best = None
        for (child, ext), sep2 in zip(children3, seps3):
            s, a = _rec_cubic(child, sep2, env, depth + 1)
            full = ext(a)
            cand = (-s, _asg_key(full))
            if best is None or cand < best[0]:
                best = (cand, s, full)
        return best[1], best[2]
    if act is None:
        act = separator_case(g, sep)

    kind, y = act.kind, act.vertex
    if kind == "reduce0":
        child, ext = reduce0(inst, y)
        return _step(child, _drop(sep, y), ext, kind, inst, sep, env, depth)
    if kind == "reduceI":
        child, ext = reduceI(inst, y)
        return _step(child, _drop(sep, y), ext, kind, inst, sep, env, depth)
    if kind == "reduceII":
        sep2 = sep.copy()
        if act.partner is not None:
            sep2.right.remove(act.partner)
            sep2.sep.add(act.partner)
        child, ext = reduceII(inst, y)
        sep2.discard(y)
        return _step(child, sep2, ext, kind, inst, sep, env, depth)
    if kind in ("drag-R", "drag-L", "rotate"):
        sep2 = sep.copy()
        sep2.sep.remove(y)
        (sep2.right if kind == "drag-R" else sep2.left).add(y)
        if kind == "rotate":
            sep2.right.remove(act.partner)
            sep2.sep.add(act.partner)
        return _step(inst, sep2, lambda a: a, kind, inst, sep, env, depth,
                     resep_n=resep_n)
    assert kind == "branch"
    children = reduceIII(inst, y)
    env.stats.branchings += 1
    seps = [_drop(sep, y) for _ in children]
    if audit is not None:
        mu = audit.record("branch", inst.r, (g, sep),
                          [(ci.graph, s2) for (ci, _), s2 in zip(children, seps)])
        _trace(env, mu)
    best = None
    for (child, ext), sep2 in zip(children, seps):
        s, a = _rec_cubic(child, sep2, env, depth + 1)
        full = ext(a)
        cand = (-s, _asg_key(full))
        if best is None or cand < best[0]:
            best = (cand, s, full)
    return best[1], best[2]


def _drop(sep: Separation, y: int) -> Separation:
    out = sep.copy()
    out.discard(y)
    return out


def _trace(env: _Env, mu: float | None):
    if env.stats.measure_trace is not None and mu is not None:
        env.stats.measure_trace.append(mu)


def _step(child: CspInstance, sep2: Separation, ext, kind: str,
          parent: CspInstance, sep: Separation, env: _Env,
          depth: int, resep_n: int = -1) -> tuple[int, dict[int, int]]:
    if env.audit is not None:
        mu = env.audit.record(kind, parent.r, (parent.graph, sep),
                              [(child.graph, sep2)])
        _trace(env, mu)
    s, a = _rec_cubic(child, sep2, env, depth + 1, resep_n=resep_n)
    return s, ext(a)


def _rec_general(inst: CspInstance, env: _Env,
                 depth: int) -> tuple[int, dict[int, int]]:
    env.stats.max_depth = max(env.stats.max_depth, depth)
    g = inst.graph
    if g.n == 0:
        env.stats.leaves += 1
        env.stats.tree_leaves += 1
        return inst.s_nil, {}
    act = _simplify_action(g, None)
    if act is not None:
        fn = {"reduce0": reduce0, "reduceI": reduceI, "reduceII": reduceII}[act.kind]
        child, ext = fn(inst, act.vertex)
        s, a = _rec_general(child, env, depth + 1)
        return s, ext(a)
    if env.policy == "separator" and g.max_degree() <= 3:
        return _rec_cubic(inst, trivial_separation(g.vertices()), env, depth)
    dmax = g.max_degree()
    y = min(v for v in g.vertices() if g.degree(v) == dmax)
    children = reduceIII(inst, y)
    env.stats.branchings += 1
    best = None
    for child, ext in children:
        s, a = _rec_general(child, env, depth + 1)
        full = ext(a)
        cand = (-s, _asg_key(full))
        if best is None or cand < best[0]:
            best = (cand, s, full)
    return best[1], best[2]


def solve(inst: CspInstance, policy: str = "separator",
          audit: CspAudit | None = None,
          seed: int = 0) -> tuple[CspSolution, SolveStats]:
    """Exact optimum, witnessing assignment, and run counters.

    The witness is deterministic (ties broken toward lexicographically
    small assignments at each combination point) and always satisfies
    evaluate(inst, witness) = score.
    """
    if policy not in ("separator", "local"):
        raise ValueError(f"unknown policy {policy!r}")
    stats = SolveStats(measure_trace=[] if audit is not None else None)
    env = _Env(policy, stats, audit, seed)
    if policy == "separator" and inst.graph.max_degree() <= 3:
        sep = trivial_separation(inst.graph.vertices())
        score, asg = _rec_cubic(inst, sep, env, 0)
    else:
        score, asg = _rec_general(inst, env, 0)
    assert stats.leaves >= 1 and stats.branchings >= 0
    return CspSolution(score, asg), stats
