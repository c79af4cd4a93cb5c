"""Exact Max 2-CSP solving: the engine and its local baseline, both nodes
of the shared loop ``policy.run``.

A node folds degree ≤ 2 vertices away in place (reductions 0/I/II) and
branches on a vertex's r colours: on a smallest-id maximum-degree vertex
while some degree exceeds 3 (the general phase, Scott–Sorkin's route
from the cubic bound to general instances), then on the pivots of the
shared separator-case ladder.  A piece is solved outright by a max-plus
sweep over its path decomposition when that keeps within r^(width+1) ≤
3^(PD_WIDTH_CAP+1) states, the budget that all three engines' sweeps
share (``policy.Node.narrow``).

Ownership: ``solve`` copies the caller's instance once.  ``policy.run``
consumes a node's instance and separation: it reduces the instance in
place and, on the way out, the witness is completed with the reductions'
fills in reverse order.  A branch writes its vertex's colour into the
witness of the child it keeps.  ``reduceIII`` children and ``restrict``
pieces are fresh.

Scores are exact (arbitrary-precision) integers throughout, so
"overflow" cannot silently wrap.  Policy "local", Scott–Sorkin's local
branching and the baseline the adversarial trace analysis applies to,
runs on the same loop: it branches on a smallest-id maximum-degree
vertex at every degree, and never splits, separates or sweeps.
"""

from __future__ import annotations

from itertools import chain
from operator import add, gt

from . import csp
from .csp import CspInstance, CspSolution, reduceIII, restrict
from .graph import Graph
from .measures import Audit, csp_snapshot
from .policy import Node, PivotAction, Stats, run
from .separator import (
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
    low = [(len(nbrs), v) for v, nbrs in adj.items() if len(nbrs) <= 2]
    if not low:
        return None
    deg, y = min(low)
    partner = None
    if deg == 2 and sep is not None and y in sep.sep:
        a, b = adj[y]
        if {sep.side_of(a), sep.side_of(b)} == {"L", "R"}:
            partner = a if a in sep.right else b
    return PivotAction(("reduce0", "reduceI", "reduceII")[deg], y, partner)


def _brute_best(inst: CspInstance, decomp: PathDecomposition) -> tuple[int, dict[int, int]]:
    """Optimum and witness of inst by one max-plus sweep over the steps of
    `decomp`, a path decomposition of inst.graph, with up to r^(width+1)
    states.
    (The name is the exhaustive terminal's that this sweep replaced: the
    benchmark's tracer wraps ``smc.csp_solve:_brute_best`` by name.)

    The state is the colouring of the bag, kept as a flat list of best
    partial scores indexed in base r, one digit per bag vertex in the
    order they were introduced.  Introducing v adds the top digit: state
    (s, c) gains s_v[v][c] plus the ``edge_rows`` entries of v's bag
    neighbours at their colours in s.  Each colour's gains form one
    column, built from the lowest digit up (a neighbour's digit adds its
    row entry, any other digit repeats the column r times) and added to
    the scores in one pass.  Every edge lies in some bag, so each is
    scored exactly once, when its later endpoint comes in.
    Forgetting v keeps the max over v's colour and stores the argmax, one
    byte per remaining state.  The witness is traced back through the
    stored argmaxes, and ties go to the smallest colour at each forget,
    in step order (``path_decomposition`` forgets its last bag by id).
    """
    r = inst.r
    adj = inst.graph.neighbor_sets()
    digits: list[int] = []  # bag vertices, lowest digit first
    scores = [0]
    # per step: (v, r^k, None) when v comes in onto k digits, and
    # (v, r^p, argmax) when v leaves from digit p
    trail: list[tuple[int, int, bytearray | None]] = []
    for v, entering in decomp.steps:
        if not entering:
            b = r ** digits.index(v)
            digits.remove(v)
            scores, arg = _forget_digit(scores, r, b)
            trail.append((v, b, arg))
            continue
        size = len(scores)
        nbrs = {digits.index(u): inst.edge_rows(u, v) for u in adj[v] if u in digits}
        grown: list[int] = []
        for c, gain in enumerate(inst.s_v[v]):
            col = [gain]
            for d in range(len(digits)):
                rows = nbrs.get(d)  # rows[a][c]: the edge's score with u at a, v at c
                col = col * r if rows is None else [x + row[c] for row in rows for x in col]
            grown += map(add, scores, col)
        scores = grown
        digits.append(v)
        trail.append((v, size, None))
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

    Each colour's column is gathered in the order of the remaining states.
    The states sharing every other digit lie b apart, so a column is
    len/(b·r) runs of b adjacent states, or b interleaved runs of stride
    b·r; it is copied out by whichever slices are fewer.  The columns then
    meet in r − 1 whole-column passes: one strict comparison per state (a
    tie keeps the smaller colour) picks both the max and the argmax, in
    list comprehensions that cost about a third of ``map(max, …)``.
    """
    step, size = b * r, len(scores) // r

    def column(c: int) -> list[int]:
        if b > size // b:
            return list(chain.from_iterable(scores[i:i + b]
                                            for i in range(c * b, len(scores), step)))
        col = [0] * size
        for j in range(b):
            col[j::b] = scores[c * b + j::step]
        return col

    top, arg = column(0), None
    for c in range(1, r):
        col = column(c)
        up = list(map(gt, col, top))
        top = [y if u else x for u, x, y in zip(up, top, col)]
        arg = up if arg is None else [c if u else a for u, a in zip(up, arg)]
    return top, bytearray(arg)


class _Node(Node):
    """An instance and its separation, for ``policy.run``, which consumes
    both.  Reductions 0/I/II are its simplification, made in place;
    ``_run`` completes the witness with their fills.  The audit measures
    subcubic steps only: above max degree 3 ``_snap`` is None."""

    base = property(lambda self: self.inst.r)  # sweep states per bag vertex: its colours

    def __init__(self, inst: CspInstance, sep: Separation, stats: Stats,
                 audit: Audit | None, weights: CspWeights):
        self.inst, self.graph, self.sep, self.fills = inst, inst.graph, sep, []
        self.stats, self.audit, self.weights = stats, audit, weights

    def _snap(self) -> dict | None:
        if self.audit is None or self.graph.max_degree() > 3:
            return None
        return csp_snapshot(self.graph, self.sep, self.weights)

    def _log(self, kind: str, before: dict | None, after: list | None = None, **kw) -> None:
        """Audit a step from `before` to this node, or to the nodes `after`."""
        if before is not None:
            after = [self] if after is None else after
            self.audit.step(kind, self.inst.r, before, [c._snap() for c in after], **kw)

    def leaf(self):
        self._log("leaf", self._snap(), [])
        return self.inst.s_nil, {}

    def split(self, parts, depth):
        children = [type(self)(restrict(self.inst, comp), self.sep.restrict(comp), self.stats,
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
        # looked up by name at each call, so the benchmark's tracer sees it
        self.fills.append(getattr(csp, act.kind)(self.inst, act.vertex))
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

    def count(self, decomp: PathDecomposition):
        self._log("terminal", self._snap(), [])
        return _brute_best(self.inst, decomp)

    def general_pivot(self) -> int | None:
        g = self.graph
        return min(g.vertices(), key=lambda v: (-g.degree(v), v)) if g.max_degree() > 3 else None

    def move(self, act: PivotAction) -> None:
        before = self._snap()
        super().move(act)
        self._log(act.kind, before, falls=("eta",))

    def branch(self, y: int, kind: str, depth: int):
        before = self._snap()
        self.sep.discard(y)  # each child is G - y
        nodes = [type(self)(ci, self.sep.copy(), self.stats, self.audit, self.weights)
                 for ci in reduceIII(self.inst, y)]
        self._log(kind, before, nodes, falls=("eta",), hard=kind == "branch",
                  note="re-separation made no progress" if kind == "stall" else "")
        return _best(y, (_run(node, depth) for node in nodes))


class _Local(_Node):
    """A node of the local baseline: after the reductions, a branch on a
    smallest-id maximum-degree vertex at every degree, never a split or a
    sweep; its separation stays trivial."""

    splits = False

    def decompose(self) -> None:
        return None

    def general_pivot(self) -> int:
        g = self.graph
        return min(g.vertices(), key=lambda v: (-g.degree(v), v))


_NODES = {"separator": _Node, "local": _Local}


def _run(node: _Node, depth: int) -> tuple[int, dict[int, int]]:
    """``policy.run`` on node, the witness completed by its reductions' fills."""
    score, asg = run(node, depth)
    for fill in reversed(node.fills):
        fill(asg)
    return score, asg


def _best(y: int, answers) -> tuple[int, dict[int, int]]:
    """Best of the children's answers, given in y's colour order, with y's
    colour written into each child's own witness; ties go to the
    lexicographically smallest assignment."""
    best = None
    for colour, (s, full) in enumerate(answers):
        full[y] = colour
        if (best is None or s > best[0]
                or (s == best[0] and sorted(full.items()) < sorted(best[1].items()))):
            best = (s, full)
    return best


def solve(inst: CspInstance, policy: str = "separator", audit: Audit | None = None,
          weights: CspWeights | None = None) -> tuple[CspSolution, Stats]:
    """Exact optimum, witnessing assignment, and run counters.

    The witness is deterministic (ties broken toward lexicographically
    small assignments where branches combine, and toward the smallest
    colour at each forget of the sweep) and always satisfies
    evaluate(inst, witness) = score.

    Policy "local" is the baseline on the same loop: it branches on a
    smallest-id maximum-degree vertex, never splits, separates or sweeps.

    An audit records every step taken at max degree ≤ 3, measured with
    `weights` (the published table by default); the general phase and
    the local policy have no measure yet, so the local policy takes no
    audit (ValueError).  Hard steps must satisfy Σ_j r^μ(I_j) ≤ r^μ(I)
    and drop η by at least 1; splits, re-separations and stalls are
    recorded with the same numbers but only logged, since the analysis
    bounds them by separator quality, not by the weights.
    """
    if policy not in _NODES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "local" and audit is not None:
        raise ValueError("the local policy records no step: an audit needs the separator policy")
    stats, weights = Stats(), weights or CspWeights.published()
    inst = inst.copy()  # the engines consume their instance
    node = _NODES[policy](inst, trivial_separation(inst.graph.vertices()), stats, audit, weights)
    score, asg = _run(node, 0)
    assert stats.leaves >= 1 and stats.branchings >= 0
    return CspSolution(score, asg), stats
