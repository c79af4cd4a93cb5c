"""Exact Max 2-CSP solving: separator-driven branching plus the plain
max-degree outer loop for instances of degree ≥ 4.

The subcubic engine maintains a separation (L,S,R) alongside the
instance.  Degree ≤ 2 vertices are folded away first.  When the separator
empties, a disconnected graph splits into components; a connected one
builds a nice path decomposition and re-separates by sweeping its bags.
Before any ladder move, the piece is solved outright instead when the
max-plus sweep over that decomposition keeps within r^(width+1) ≤
3^(PD_WIDTH_CAP+1) states, the #DS sweep's bound.  Otherwise the next
pivot comes from the shared separator-case ladder.  A branch after a
reduction has changed the graph makes the same width check on a fresh
decomposition, and so does the max-degree outer loop under the separator
policy.

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
from .measures import Audit, csp_snapshot
from .policy import MOVES, PivotAction, Stats, apply_move, deg3_side_counts, separator_case
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


@dataclass
class _Env:
    policy: str
    stats: Stats
    audit: Audit | None
    weights: CspWeights

    def snap(self, g: Graph, sep: Separation) -> dict:
        return csp_snapshot(g, sep, self.weights)


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
    env.stats.dp_calls += 1
    return _brute_best(inst, decomp)


_IN_PLACE = {"reduce0": reduce0_inplace, "reduceI": reduceI_inplace,
             "reduceII": reduceII_inplace}


def _rec_cubic(inst: CspInstance, sep: Separation, env: _Env,
               depth: int) -> tuple[int, dict[int, int]]:
    """Optimum and witness of inst under the separation sep; consumes both.

    Reductions, drags, rotations and re-separations run in place; their
    fills are applied in reverse on the way out.  Only a branch, a stall,
    a split or a terminal recurses.  Each step the loop goes on from
    counts one level of depth.
    The re-separation's decomposition is kept until a reduction changes
    the graph; a branch or stall while it is kept skips the width check,
    which that decomposition already failed.
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
                audit.step("leaf", inst.r, env.snap(g, sep), [])
            score, asg = inst.s_nil, {}
            break

        l3, r3 = deg3_side_counts(g, sep)
        if l3 > r3:
            sep.swap()

        act = _simplify_action(g, sep)
        if act is None and not sep.sep:
            comps = connected_components(g)
            if len(comps) > 1:
                stats.splits += 1
                children = [(restrict(inst, comp), sep.restrict(comp)) for comp in comps]
                if audit is not None:
                    audit.step("split", inst.r, env.snap(g, sep),
                               [env.snap(ci.graph, cs) for ci, cs in children], hard=False)
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
                    audit.step("reseparate", inst.r, env.snap(g, sep), [env.snap(g, sep2)],
                               hard=False)
                # narrow, the piece is swept before any ladder move
                best = _narrow_best(inst, env, decomp)
                if best is not None:
                    if audit is not None:
                        audit.step("terminal", inst.r, env.snap(g, sep2), [])
                    score, asg = best
                    break
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
            before = env.snap(g, sep)
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
            audit.step(kind, inst.r, before, [env.snap(g, sep)], falls=("eta",))
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
    """Branch on y, the ladder's pivot or a stall's.  `decomp` is the last
    re-separation's decomposition of inst, which was found too wide for
    the sweep when it was built; without one, inst is swept instead when
    narrow."""
    if decomp is None:
        best = _narrow_best(inst, env, nice_path_decomposition(inst.graph))
        if best is not None:
            if env.audit is not None:
                env.audit.step("terminal", inst.r, env.snap(inst.graph, sep), [])
            return best
    children = reduceIII(inst, y)
    env.stats.branchings += 1
    env.stats.stalls += kind == "stall"
    seps = [sep.restrict(ci.graph.vertices()) for ci, _ in children]
    if env.audit is not None:
        env.audit.step(kind, inst.r, env.snap(inst.graph, sep),
                       [env.snap(ci.graph, s2) for (ci, _), s2 in zip(children, seps)],
                       falls=("eta",), hard=kind == "branch", note=note)
    return _best(children, lambda i, child: _rec_cubic(child, seps[i], env, depth + 1))


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


def solve(inst: CspInstance, policy: str = "separator", audit: Audit | None = None,
          weights: CspWeights | None = None) -> tuple[CspSolution, Stats]:
    """Exact optimum, witnessing assignment, and run counters.

    The witness is deterministic (ties broken toward lexicographically
    small assignments where branches combine, and toward the smallest
    colour at each forget of the sweep) and always satisfies
    evaluate(inst, witness) = score.

    An audit records every step of the subcubic engine, measured with
    `weights` (the published table by default); the local policy runs
    no step it could audit, so it takes no audit (ValueError).  Hard
    steps must satisfy Σ_j r^μ(I_j) ≤ r^μ(I) and drop η by at least 1;
    splits, re-separations and stalls are recorded with the same numbers
    but only logged, since the analysis bounds them by separator quality,
    not by the weights.
    """
    if policy not in ("separator", "local"):
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "local" and audit is not None:
        raise ValueError("the local policy records no step: an audit needs the separator policy")
    stats = Stats()
    env = _Env(policy, stats, audit, weights or CspWeights.published())
    inst = inst.copy()  # the engines consume their instance
    if policy == "separator" and inst.graph.max_degree() <= 3:
        sep = trivial_separation(inst.graph.vertices())
        score, asg = _rec_cubic(inst, sep, env, 0)
    else:
        score, asg = _rec_general(inst, env, 0)
    assert stats.leaves >= 1 and stats.branchings >= 0
    return CspSolution(score, asg), stats
