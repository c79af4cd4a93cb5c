"""Exact Max 2-CSP solving: the subcubic engine, a node of the shared
loop ``policy.run``, and the plain max-degree outer loop before it.

The subcubic node folds degree ≤ 2 vertices away in place (reductions
0/I/II), takes its pivots from the shared separator-case ladder and
branches on a vertex's r colours.  A piece is solved outright by a
max-plus sweep over its path decomposition when that keeps within
r^(width+1) ≤ 3^(PD_WIDTH_CAP+1) states, the #DS sweep's bound.  The
outer loop reduces and branches on a maximum-degree vertex until the
instance is subcubic; under the separator policy it sweeps a narrow
piece too.

Ownership: ``policy.run`` consumes a node's instance and separation, and
``_rec_general`` its instance; both reduce in place and complete the
witness with the reductions' fills on the way out.  ``solve`` copies the
caller's instance once; ``reduceIII`` children and ``restrict`` pieces
are fresh.

Scores are exact (arbitrary-precision) integers throughout, so
"overflow" cannot silently wrap.  Policy "local" disables all separator
machinery and branches on a smallest-id maximum-degree vertex, which is
the baseline the adversarial trace analysis applies to.
"""

from __future__ import annotations

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
from .graph import Graph
from .measures import Audit, csp_snapshot
from .policy import Node, PivotAction, Stats, run
from .separator import (
    PD_WIDTH_CAP,
    PathDecomposition,
    Separation,
    nice_path_decomposition,
    separate_cubic,
    trivial_separation,
)
from .weights import CspWeights


def _simplify_action(g: Graph, sep: Separation | None) -> PivotAction | None:
    """The reduction of a lowest-degree, then smallest-id, vertex of degree
    ≤ 2; None when there is none.  A degree-2 separator vertex with one
    endpoint in L and one in R carries its R-endpoint as the separator
    repair."""
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


def _narrow_best(inst: CspInstance, stats: Stats,
                 decomp: PathDecomposition) -> tuple[int, dict[int, int]] | None:
    """The sweep's optimum of inst over `decomp`, a nice path decomposition of
    inst.graph, if it has r^(width+1) ≤ 3^(PD_WIDTH_CAP+1) states, else None."""
    if inst.r ** (decomp.width + 1) > 3 ** (PD_WIDTH_CAP + 1):
        return None
    stats.leaves += 1
    stats.dp_calls += 1
    return _brute_best(inst, decomp)


_IN_PLACE = {"reduce0": reduce0_inplace, "reduceI": reduceI_inplace,
             "reduceII": reduceII_inplace}


class _Node(Node):
    """A subcubic instance and its separation, for ``policy.run``, which
    consumes both.  Reductions 0/I/II are its simplification, made in
    place; ``_run`` completes the witness with their fills."""

    def __init__(self, inst: CspInstance, sep: Separation, stats: Stats,
                 audit: Audit | None, weights: CspWeights):
        self.inst, self.graph, self.sep, self.fills = inst, inst.graph, sep, []
        self.stats, self.audit, self.weights = stats, audit, weights

    def _snap(self) -> dict | None:
        return None if self.audit is None else csp_snapshot(self.graph, self.sep, self.weights)

    def _log(self, kind: str, before: dict | None, after: list | None = None, **kw) -> None:
        """Audit a step from `before` to this node, or to the nodes `after`."""
        if self.audit is not None:
            after = [self] if after is None else after
            self.audit.step(kind, self.inst.r, before, [c._snap() for c in after], **kw)

    def leaf(self):
        self._log("leaf", self._snap(), [])
        return self.inst.s_nil, {}

    def split(self, parts, depth):
        children = [_Node(restrict(self.inst, comp), self.sep.restrict(comp), self.stats,
                          self.audit, self.weights) for comp in parts]
        self._log("split", self._snap(), children, hard=False)
        answers = [_run(child, depth) for child in children]
        return (self.inst.s_nil + sum(s for s, _ in answers),
                {v: c for _, a in answers for v, c in a.items()})

    def simplify(self) -> bool:
        act = _simplify_action(self.graph, self.sep)
        if act is None:
            return False
        before = self._snap()
        self.fills.append(_IN_PLACE[act.kind](self.inst, act.vertex))
        self.sep.discard(act.vertex)
        if act.partner is not None:  # reduceII's separator repair
            self.sep.right.remove(act.partner)
            self.sep.sep.add(act.partner)
        self._log(act.kind, before, falls=("eta",))
        return True

    def separate(self) -> PathDecomposition:
        decomp, before = nice_path_decomposition(self.graph), self._snap()
        self.sep = separate_cubic(self.graph, decomp)
        self._log("reseparate", before, hard=False)
        return decomp

    def sweep(self, decomp: PathDecomposition):
        best = _narrow_best(self.inst, self.stats, decomp)
        if best is not None:
            self._log("terminal", self._snap(), [])
        return best

    def move(self, act: PivotAction) -> None:
        before = self._snap()
        super().move(act)
        self._log(act.kind, before, falls=("eta",))

    def branch(self, y: int, kind: str, depth: int):
        children = reduceIII(self.inst, y)
        nodes = [_Node(ci, self.sep.restrict(ci.graph.vertices()), self.stats, self.audit,
                       self.weights) for ci, _ in children]
        self._log(kind, self._snap(), nodes, falls=("eta",), hard=kind == "branch",
                  note="re-separation made no progress" if kind == "stall" else "")
        return _best(children, lambda i, child: _run(nodes[i], depth))


def _run(node: _Node, depth: int) -> tuple[int, dict[int, int]]:
    """``policy.run`` on node, the witness completed by its reductions' fills."""
    score, asg = run(node, depth)
    for fill in reversed(node.fills):
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
                or (s == best[0] and sorted(full.items()) < sorted(best[1].items()))):
            best = (s, full)
    return best


def _rec_general(inst: CspInstance, stats: Stats, depth: int,
                 cubic=None) -> tuple[int, dict[int, int]]:
    """Max-degree outer loop; consumes inst.  Reductions 0/I/II run in
    place, one level of depth each.  Under the separator policy,
    `cubic(inst, depth)` takes over once inst is subcubic, and a narrow
    piece is swept instead of branched on; under the local policy `cubic`
    is None and the loop always branches."""
    g = inst.graph
    fills = []
    while True:
        stats.max_depth = max(stats.max_depth, depth)
        if g.n == 0:
            stats.leaves += 1
            score, asg = inst.s_nil, {}
            break
        act = _simplify_action(g, None)
        if act is not None:
            fills.append(_IN_PLACE[act.kind](inst, act.vertex))
            depth += 1
            continue
        if cubic is not None:
            if g.max_degree() <= 3:
                score, asg = cubic(inst, depth)
                break
            best = _narrow_best(inst, stats, nice_path_decomposition(g))
            if best is not None:
                score, asg = best
                break
        dmax = g.max_degree()
        y = min(v for v in g.vertices() if g.degree(v) == dmax)
        children = reduceIII(inst, y)
        stats.branchings += 1
        score, asg = _best(children, lambda i, child: _rec_general(child, stats, depth + 1, cubic))
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
    stats, weights = Stats(), weights or CspWeights.published()
    inst = inst.copy()  # the engines consume their instance

    def cubic(inst: CspInstance, depth: int) -> tuple[int, dict[int, int]]:
        sep = trivial_separation(inst.graph.vertices())
        return _run(_Node(inst, sep, stats, audit, weights), depth)

    if policy == "local":
        score, asg = _rec_general(inst, stats, 0)
    elif inst.graph.max_degree() <= 3:
        score, asg = cubic(inst, 0)
    else:
        score, asg = _rec_general(inst, stats, 0, cubic)
    assert stats.leaves >= 1 and stats.branchings >= 0
    return CspSolution(score, asg), stats
