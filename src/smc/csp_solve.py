"""Exact Max 2-CSP solving: separator-driven branching plus the plain
max-degree outer loop for instances of degree ≥ 4.

The subcubic engine maintains a separation (L,S,R) alongside the
instance.  Degree ≤ 2 vertices are folded away first; when the separator
empties, the engine splits components or re-separates by sweeping a nice
path decomposition's bags; otherwise the next pivot comes from the shared
separator-case ladder.  A piece that would branch is solved outright
instead when its decomposition (the re-separation's, if no reduction has
changed the graph since) keeps the max-plus sweep within r^(width+1) ≤
3^(PD_WIDTH_CAP+1) states, the #DS sweep's bound; under the separator
policy the max-degree outer loop makes the same check.

Ownership: a ``_rec_cubic`` call owns and consumes its instance and
separation, and so does ``_rec_general`` with its instance.  Steps that
do not branch mutate them in place inside one loop, so recursion depth
is branching depth.  ``solve`` copies the caller's instance once;
``reduceIII`` children and ``restrict`` pieces are fresh.

Scores are exact (arbitrary-precision) integers throughout, so
"overflow" cannot silently wrap.  Policy "local" disables all separator
machinery and branches on a smallest-id maximum-degree vertex, which is
the baseline the adversarial trace analysis applies to.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .csp import (
    CspInstance,
    CspSolution,
    reduce0_inplace,
    reduceI_inplace,
    reduceII_inplace,
    reduceIII,
    restrict,
)
from .graph import Graph, connected_components
from .measures import csp_eta, csp_mu
from .policy import MOVES, PivotAction, apply_move, deg3_side_counts, separator_case
from .separator import (
    PD_WIDTH_CAP,
    PathDecomposition,
    Separation,
    nice_path_decomposition,
    separate_cubic,
    trivial_separation,
    verify_separation,
)
from .weights import CspWeights

MU_REL_SLACK = 1e-9

_HARD_KINDS = frozenset({
    "reduce0", "reduceI", "reduceII", "drag-R", "drag-L", "rotate",
    "branch", "terminal", "leaf",
})


@dataclass
class SolveStats:
    branchings: int = 0
    leaves: int = 0  # terminal nodes: empty instances and swept pieces
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


def _asg_key(asg: dict[int, int]) -> tuple:
    return tuple(sorted(asg.items()))


def _simplify_action(g: Graph, sep: Separation | None) -> PivotAction | None:
    adj = g.neighbor_sets()
    low = min(((len(nbrs), v) for v, nbrs in adj.items() if len(nbrs) <= 2),
              default=None)
    if low is None:
        return None
    deg, y = low
    partner = None
    if deg == 2 and sep is not None and y in sep.sep:
        a, b = adj[y]
        if {sep.side_of(a), sep.side_of(b)} == {"L", "R"}:
            partner = a if a in sep.right else b
    return PivotAction(("reduce0", "reduceI", "reduceII")[deg], y, partner)


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


def _brute_best(inst: CspInstance, decomp: PathDecomposition) -> tuple[int, dict[int, int]]:
    """Optimum and witness of inst by one max-plus sweep over `decomp`, a
    nice path decomposition of inst.graph, with up to r^(width+1) states.
    (The name is the exhaustive terminal's that this sweep replaced: the
    benchmark's tracer wraps ``smc.csp_solve:_brute_best`` by name.)

    The state is the colouring of the bag, kept as a flat list of best
    partial scores indexed in base r, one digit per bag vertex in the
    order they were introduced.  Introducing v adds the top digit: state
    (s, c) gains s_v[v][c] plus the ``edge_rows`` entries of v's bag
    neighbours at their colours in s.  Every edge lies in some bag, so
    each is scored exactly once, when its later endpoint comes in.
    Forgetting v keeps the max over v's colour and stores the argmax, one
    byte per remaining state; a closing empty bag forgets what the last
    bag holds.  The witness is traced back through the stored argmaxes,
    and ties go to the smallest colour at each forget.
    """
    r = inst.r
    adj = inst.graph.neighbor_sets()
    digits: list[int] = []  # bag vertices, lowest digit first
    scores = [0]
    # per step: (v, r^k, None) when v comes in onto k digits, and
    # (v, r^p, argmax) when v leaves from digit p
    trail: list[tuple[int, int, bytearray | None]] = []
    prev: frozenset[int] = frozenset()
    for bag in [*decomp.bags, frozenset()]:
        for v in prev - bag:
            b = r ** digits.index(v)
            digits.remove(v)
            scores, arg = _forget_digit(scores, r, b)
            trail.append((v, b, arg))
        for v in bag - prev:
            size = len(scores)
            nbrs = [(r ** digits.index(u), inst.edge_rows(u, v)) for u in adj[v] if u in digits]
            grown: list[int] = []
            for c, gain in enumerate(inst.s_v[v]):
                block = [x + gain for x in scores]
                for b, rows in nbrs:  # row[c] of u's colour, repeated along digit b
                    col = [x for row in rows for x in (row[c],) * b] * (size // (b * r))
                    block = list(map(add, block, col))
                grown += block
            scores = grown
            digits.append(v)
            trail.append((v, size, None))
        prev = bag
    asg: dict[int, int] = {}
    t = 0
    for v, b, arg in reversed(trail):
        if arg is None:  # undo an introduce: drop the top digit
            t %= b
        else:  # undo a forget: put v's colour back in as digit b
            c = asg[v] = arg[t]
            t += (t // b) * b * (r - 1) + c * b
    return inst.s_nil + scores[0], asg


def _forget_digit(scores: list[int], r: int, b: int) -> tuple[list[int], bytearray]:
    """Max over the base-r digit of weight b, and for each remaining state
    the smallest colour attaining it.

    The states sharing every other digit lie b apart, so the work runs
    either over the len/(b·r) runs of b adjacent states or over the b
    interleaved runs of stride b·r, whichever are fewer.
    """
    step = b * r
    runs = len(scores) // step
    out = [0] * (len(scores) // r)
    arg = bytearray(len(out))
    if b >= runs:
        pieces = [([slice(i * step + c * b, i * step + c * b + b) for c in range(r)],
                   slice(i * b, i * b + b)) for i in range(runs)]
    else:
        pieces = [([slice(j + c * b, None, step) for c in range(r)], slice(j, None, b))
                  for j in range(b)]
    for src, dst in pieces:
        cols = [scores[s] for s in src]
        top = list(map(max, *cols))
        out[dst] = top
        arg[dst] = bytes(map(tuple.index, zip(*cols), top))
    return out, arg


def _narrow_best(inst: CspInstance, env: _Env,
                 decomp: PathDecomposition) -> tuple[int, dict[int, int]] | None:
    """The sweep's optimum of inst over `decomp`, a nice path decomposition of
    inst.graph, if it has r^(width+1) ≤ 3^(PD_WIDTH_CAP+1) states, else None."""
    if inst.r ** (decomp.width + 1) > 3 ** (PD_WIDTH_CAP + 1):
        return None
    env.stats.leaves += 1
    return _brute_best(inst, decomp)


def _sub_separation(sep: Separation, comp: set[int]) -> Separation:
    return Separation(sep.left & comp, sep.sep & comp, sep.right & comp)


_IN_PLACE = {"reduce0": reduce0_inplace, "reduceI": reduceI_inplace,
             "reduceII": reduceII_inplace}


def _rec_cubic(inst: CspInstance, sep: Separation, env: _Env,
               depth: int) -> tuple[int, dict[int, int]]:
    """Optimum and witness of inst under the separation sep; consumes both.

    Reductions, drags, rotations and re-separations run in place; their
    fills are applied in reverse on the way out.  Only a branch, a stall,
    a split or a terminal recurses.  Each step counts one level of depth.
    A branch or stall reuses the re-separation's decomposition while no
    reduction has changed the graph since.
    """
    stats, audit, g = env.stats, env.audit, inst.graph
    fills = []
    decomp = None  # swept by the last re-separation; None once a reduction changes g
    while True:
        stats.max_depth = max(stats.max_depth, depth)
        if audit is not None:
            assert verify_separation(g, sep), "separation invalid at recursive call"
        if g.n == 0:
            stats.leaves += 1
            if audit is not None:
                audit.record("leaf", inst.r, (g, sep), [])
            score, asg = inst.s_nil, {}
            break

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
                    _trace(env, audit.record("split", inst.r, (g, sep),
                                             [(ci.graph, cs) for ci, cs in children],
                                             eta_exempt=True))
                score, asg = inst.s_nil, {}
                for ci, cs in children:
                    s, a = _rec_cubic(ci, cs, env, depth + 1)
                    score += s
                    asg.update(a)
                break
            if decomp is None:
                decomp = nice_path_decomposition(g)
                sep2 = separate_cubic(g, decomp)
                stats.separator_recomputes += 1
                if audit is not None:
                    _trace(env, audit.record("reseparate", inst.r, (g, sep), [(g, sep2)],
                                             eta_exempt=True))
                sep, depth = sep2, depth + 1
                continue
            # Separating this graph already led back here with nothing removed
            # (the case ladder consumed the whole separator), so separating
            # again would repeat the cycle.  Branch on one vertex to shrink the
            # graph; outside the analyzed cases, hence a soft step.
            y = min(v for v in g.vertices() if g.degree(v) == g.max_degree())
            score, asg = _branch_cubic(inst, sep, y, env, depth, decomp, "stall",
                                       "re-separation made no progress")
            break
        if act is None:
            act = separator_case(g, sep)

        kind, y = act.kind, act.vertex
        if kind == "branch":
            score, asg = _branch_cubic(inst, sep, y, env, depth, decomp, "branch")
            break
        if audit is not None:
            parent = (g if kind in MOVES else g.copy(), sep.copy())
        if kind in MOVES:
            apply_move(sep, act, g.neighbor_sets().__getitem__)
        else:
            fills.append(_IN_PLACE[kind](inst, y))
            sep.discard(y)
            decomp = None
            if act.partner is not None:  # reduceII's separator repair
                sep.right.remove(act.partner)
                sep.sep.add(act.partner)
        if audit is not None:
            _trace(env, audit.record(kind, inst.r, parent, [(g, sep)]))
        depth += 1
    for fill in reversed(fills):
        fill(asg)
    return score, asg


def _best(children, solve_child) -> tuple[int, dict[int, int]]:
    """Best extended child optimum; ties go to the lexicographically
    smallest assignment."""
    best = None
    for i, (child, ext) in enumerate(children):
        s, a = solve_child(i, child)
        full = ext(a)
        if (best is None or s > best[0]
                or (s == best[0] and _asg_key(full) < _asg_key(best[1]))):
            best = (s, full)
    return best


def _branch_cubic(inst: CspInstance, sep: Separation, y: int, env: _Env,
                  depth: int, decomp: PathDecomposition | None, kind: str,
                  note: str = "") -> tuple[int, dict[int, int]]:
    """Branch on y, unless inst is narrow enough for the sweep.  Both the
    ladder's branches and stalls come here, never the S=∅ root, which
    separates first.  `decomp` is inst's decomposition if one is known."""
    best = _narrow_best(inst, env, decomp or nice_path_decomposition(inst.graph))
    if best is not None:
        if env.audit is not None:
            _trace(env, env.audit.record("terminal", inst.r, (inst.graph, sep), []))
        return best
    children = reduceIII(inst, y)
    env.stats.branchings += 1
    seps = [_drop(sep, y) for _ in children]
    if env.audit is not None:
        _trace(env, env.audit.record(
            kind, inst.r, (inst.graph, sep),
            [(ci.graph, s2) for (ci, _), s2 in zip(children, seps)], note=note))
    return _best(children, lambda i, child: _rec_cubic(child, seps[i], env, depth + 1))


def _drop(sep: Separation, y: int) -> Separation:
    out = sep.copy()
    out.discard(y)
    return out


def _trace(env: _Env, mu: float | None):
    if env.stats.measure_trace is not None and mu is not None:
        env.stats.measure_trace.append(mu)


def _rec_general(inst: CspInstance, env: _Env,
                 depth: int) -> tuple[int, dict[int, int]]:
    """Max-degree outer loop; consumes inst.  Reductions 0/I/II run in
    place as in ``_rec_cubic``; each still counts one level of depth.
    Under the separator policy a narrow piece is swept instead of
    branched on; the local policy always branches."""
    g = inst.graph
    fills = []
    while True:
        env.stats.max_depth = max(env.stats.max_depth, depth)
        if g.n == 0:
            env.stats.leaves += 1
            score, asg = inst.s_nil, {}
            break
        act = _simplify_action(g, None)
        if act is not None:
            fills.append(_IN_PLACE[act.kind](inst, act.vertex))
            depth += 1
            continue
        if env.policy == "separator":
            if g.max_degree() <= 3:
                score, asg = _rec_cubic(inst, trivial_separation(g.vertices()), env, depth)
                break
            best = _narrow_best(inst, env, nice_path_decomposition(g))
            if best is not None:
                score, asg = best
                break
        dmax = g.max_degree()
        y = min(v for v in g.vertices() if g.degree(v) == dmax)
        children = reduceIII(inst, y)
        env.stats.branchings += 1
        score, asg = _best(children, lambda i, child: _rec_general(child, env, depth + 1))
        break
    for fill in reversed(fills):
        fill(asg)
    return score, asg


def solve(inst: CspInstance, policy: str = "separator",
          audit: CspAudit | None = None) -> tuple[CspSolution, SolveStats]:
    """Exact optimum, witnessing assignment, and run counters.

    The witness is deterministic (ties broken toward lexicographically
    small assignments where branches combine, and toward the smallest
    colour at each forget of the sweep) and always satisfies
    evaluate(inst, witness) = score.
    """
    if policy not in ("separator", "local"):
        raise ValueError(f"unknown policy {policy!r}")
    stats = SolveStats(measure_trace=[] if audit is not None else None)
    env = _Env(policy, stats, audit)
    inst = inst.copy()  # the engines consume their instance
    if policy == "separator" and inst.graph.max_degree() <= 3:
        sep = trivial_separation(inst.graph.vertices())
        score, asg = _rec_cubic(inst, sep, env, 0)
    else:
        score, asg = _rec_general(inst, env, 0)
    assert stats.leaves >= 1 and stats.branchings >= 0
    return CspSolution(score, asg), stats
