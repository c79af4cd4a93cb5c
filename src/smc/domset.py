"""Counting dominating sets of labeled subcubic graphs.

Labels: U = unlabeled (may join the dominating set, must be dominated),
N = excluded (may not join, must be dominated), C = covered (may join,
needs no domination).  Every degree-3 vertex must be labeled U; the
three-way branching below only ever fires on degree-3 vertices, and the
relabelings it performs keep the invariant.

The result of a count is a cardinality-indexed vector: entry k = number
of valid dominating sets of size exactly k.  The counter branches
three ways on a degree-3 vertex (in / optional / forbidden) and
recombines by inclusion-exclusion; degree <= 2 vertices are never
branched on.  Its one terminal, ``ds_dp``, sweeps a path decomposition
with three states per bag vertex.  Both policies run on the shared loop
``policy.run``, which consumes a node's separation and picks what is
counted outright: a piece of max degree <= 2, along its walk order, and
a piece whose nice path decomposition ``narrow`` accepts, of width at
most ``PD_WIDTH_CAP``.  Under the separator policy each component is a
node, and its moves and branch pivots come from the loop's one
separator-case ladder, ``policy.separator_case``, which the Max 2-CSP
solver runs too.
The local baseline branches on the smallest-id degree-3 vertex until
none is left, with no component split, separation or decomposition, and
then sweeps what remains along its walk.  Branch children and
components are fresh copies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counts import CountVector, add_into
from .graph import Graph, induced_subgraph, parse_graph
from .measures import Audit
from .policy import Node, Stats, run
from .separator import (
    PD_WIDTH_CAP,
    PathDecomposition,
    Separation,
    nice_path_decomposition,
    separate_cubic,
    trivial_separation,
)

U, N, C = "U", "N", "C"
LABELS = (U, N, C)


@dataclass
class LabeledGraph:
    graph: Graph
    label: dict[int, str]

    @staticmethod
    def all_u(g: Graph) -> "LabeledGraph":
        return LabeledGraph(g.copy(), {v: U for v in g.vertices()})

    def copy(self) -> "LabeledGraph":
        return LabeledGraph(self.graph.copy(), dict(self.label))

    def check(self) -> None:
        """ValueError unless every vertex has a label in LABELS and every
        degree-3 vertex is labeled U."""
        if set(self.label) != set(self.graph.vertices()):
            raise ValueError("labels must be total")
        for v in self.graph.vertices():
            if self.label[v] not in LABELS:
                raise ValueError(f"vertex {v} has unknown label {self.label[v]!r}")
            if self.graph.degree(v) == 3 and self.label[v] != U:
                raise ValueError(f"degree-3 vertex {v} labeled {self.label[v]}")

    def delete_vertex(self, v: int) -> None:
        self.graph.delete_vertex(v)
        del self.label[v]


def parse_labeled_graph(text: str) -> LabeledGraph:
    """Graph text format plus optional ``label <id> <U|N|C>`` lines (default
    U), at most one per vertex."""
    graph_lines: list[str] = []
    labels: dict[int, str] = {}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts[:1] == ["label"]:
            if len(parts) != 3 or parts[2] not in LABELS:
                raise ValueError(f"bad label line {' '.join(parts)!r}")
            v = int(parts[1])
            if v in labels:
                raise ValueError(f"second label for vertex {v}")
            labels[v] = parts[2]
        else:
            graph_lines.append(raw)
    g = parse_graph("\n".join(graph_lines))
    lg = LabeledGraph.all_u(g)
    for v, lab in labels.items():
        if v not in lg.label:
            raise ValueError(f"label for unknown vertex {v}")
        lg.label[v] = lab
    lg.check()
    return lg


def format_labeled_graph(lg: LabeledGraph) -> str:
    from .graph import format_graph

    out = format_graph(lg.graph)
    for v in lg.graph.vertices():
        if lg.label[v] != U:
            out += f"label {v} {lg.label[v]}\n"
    return out


# -- three-way branching -------------------------------------------------------


def branch3(lg: LabeledGraph, x: int) -> tuple[LabeledGraph, LabeledGraph, LabeledGraph]:
    """Three-way inclusion/exclusion branch on a degree-3 vertex.

    g_in puts x into the dominating set: x leaves the graph, its
    U-neighbors no longer need domination (-> C), and its N-neighbors
    are dominated but excluded, hence fully settled (deleted).  g_opt
    only rules x out of the set while dropping its domination
    requirement: x is deleted.  g_forb forbids dominating x at all: the
    C-neighbors of x are deleted (they may not join), the remaining
    neighbors are pinned to N, and x is deleted.  Counts recombine as

        count(g) = count(g_in) shifted by one + count(g_opt) - count(g_forb)

    since "optional minus forbidden" is exactly "x dominated but not
    taken".  Every deletion only lowers degrees, so the degree-3 -> U
    invariant survives all three children.
    """
    if lg.graph.degree(x) != 3:
        raise ValueError(f"branch vertex {x} has degree {lg.graph.degree(x)}")
    nbrs = lg.graph.neighbors(x)
    g_in = lg.copy()
    g_in.delete_vertex(x)
    for u in nbrs:
        if lg.label[u] == N:
            g_in.delete_vertex(u)
        elif lg.label[u] == U:
            g_in.label[u] = C
    g_opt = lg.copy()
    g_opt.delete_vertex(x)
    g_forb = lg.copy()
    g_forb.delete_vertex(x)
    for u in nbrs:
        if lg.label[u] == C:
            g_forb.delete_vertex(u)
        else:
            g_forb.label[u] = N
    return g_in, g_opt, g_forb


# -- terminal counter: one sweep over a path decomposition ---------------------


def ds_dp(lg: LabeledGraph, decomp: PathDecomposition) -> CountVector:
    """Dominating-set counts by one sweep over `decomp`, a nice path
    decomposition of lg.graph, with up to 3^(width+1) states.

    Each bag vertex is in the set, out and dominated (or labeled C, which
    needs no domination), or out and still pending.  A state key holds the
    in-set bit 4^i and the pending bit 2·4^i of the vertex in bag slot i.
    Introducing v in the set (never an N vertex) shifts the count vector
    and clears its bag neighbors' pending bits; introducing it out makes
    it pending when it needs domination and no bag neighbor is in.  Every
    edge lies in some bag, so a vertex still pending when it is forgotten
    stays undominated and its states are dropped.
    """
    adj = lg.graph.neighbor_sets()
    slot: dict[int, int] = {}  # bag vertex -> its in-set bit
    states = {0: CountVector.one()}
    prev: frozenset[int] = frozenset()
    # the last bag is not empty: a closing empty bag forgets what it holds
    for bag in [*decomp.bags, frozenset()]:
        for v in prev - bag:
            b = slot.pop(v)
            new: dict[int, CountVector] = {}
            for s, acc in states.items():
                if not s & b << 1:
                    add_into(new, s & ~(3 * b), acc)
            states = new
        for v in bag - prev:
            used = 3 * sum(slot.values())
            slot[v] = b = ~used & (used + 1)  # the lowest free slot
            nb = sum(slot.get(u, 0) for u in adj[v])
            lab = lg.label[v]
            new = {}
            ins: dict[int, CountVector] = {}  # summed before their one shift
            for s, acc in states.items():
                if lab != N:
                    add_into(ins, (s & ~(nb << 1)) | b, acc)
                add_into(new, s | b << 1 if lab != C and not s & nb else s, acc)
            for s, acc in ins.items():
                new[s] = acc.shift(1)
            states = new
        prev = bag
    return states.get(0, CountVector.zero())


# -- counting engine -----------------------------------------------------------


def _checked(audit: Audit | None, kind: str, n: int, vec: CountVector) -> CountVector:
    """vec, recorded with the audit's count checks: the branch recombination
    subtracts the forbidden child, so a bug would typically show up as a
    negative entry ("nonneg") or as mass above index n or a total above
    2^n ("sum")."""
    if audit is not None:
        fits = not any(vec.counts[n + 1:]) and vec.total() <= 2**n
        audit.add(kind, True, {"nonneg": vec.is_nonnegative(), "sum": fits}, {"n": n})
    return vec


def _terminal(lg: LabeledGraph, decomp: PathDecomposition) -> CountVector:
    """``ds_dp`` of a piece that ``policy.run`` counts outright; the
    benchmark's tracer times this name as ``domset.terminal``."""
    return ds_dp(lg, decomp)


class _Node(Node):
    """A labeled subcubic graph and its separation, for ``policy.run``,
    which consumes both.  Nothing simplifies it."""

    def __init__(self, lg: LabeledGraph, sep: Separation, stats: Stats, audit: Audit | None):
        self.lg, self.graph, self.sep, self.stats, self.audit = lg, lg.graph, sep, stats, audit

    def _child(self, lg: LabeledGraph) -> "_Node":
        return type(self)(lg, self.sep.restrict(lg.graph.vertices()), self.stats, self.audit)

    def check(self) -> None:
        super().check()
        self.lg.check()

    def leaf(self) -> CountVector:
        return _checked(self.audit, "leaf", 0, CountVector.one())

    def split(self, parts, depth) -> CountVector:
        vec, lg = CountVector.one(), self.lg
        for comp in parts:
            sub = LabeledGraph(induced_subgraph(lg.graph, comp), {v: lg.label[v] for v in comp})
            vec = vec.convolve(run(self._child(sub), depth))
        return _checked(self.audit, "split", self.graph.n, vec)

    def separate(self) -> PathDecomposition:
        decomp = nice_path_decomposition(self.graph)
        self.sep = separate_cubic(self.graph, decomp)
        return decomp

    def narrow(self, width: int) -> bool:
        return width <= PD_WIDTH_CAP

    def count(self, decomp: PathDecomposition) -> CountVector:
        return _checked(self.audit, "dp", self.graph.n, _terminal(self.lg, decomp))

    def branch(self, y, kind, depth) -> CountVector:
        vec_in, vec_opt, vec_forb = [run(self._child(c), depth) for c in branch3(self.lg, y)]
        return _checked(self.audit, kind, self.graph.n, vec_in.shift(1) + vec_opt - vec_forb)


class _Local(_Node):
    """A node of the local baseline: a branch on the smallest-id degree-3
    vertex, never a split or a decomposition; its separation stays
    trivial."""

    splits = False

    def decompose(self) -> None:
        return None

    def general_pivot(self) -> int:
        g = self.graph
        return next(v for v in g.vertices() if g.degree(v) == 3)


_NODES = {"separator": _Node, "local": _Local}


def count_ds(lg: LabeledGraph, policy: str = "separator",
             audit: Audit | None = None) -> tuple[CountVector, Stats]:
    """Count dominating sets of every size; returns (vector, counters).

    Entry k of the vector is the exact number of vertex sets of size k
    that satisfy every label: U and N vertices dominated, N vertices
    excluded.  The default policy drives branching by separators (it
    starts from the trivial all-R separation and computes a real one on
    demand); policy "local" is the separator-free baseline, on the same
    loop: a branch on the smallest-id degree-3 vertex until none is left,
    then a sweep of the paths and cycles that remain.  An audit records
    the count checks of every vector the engine returns: a local run's
    branches are "general" and its sweeps "dp".
    """
    if policy not in _NODES:
        raise ValueError(f"unknown policy {policy!r}")
    if lg.graph.max_degree() > 3:
        raise ValueError(f"count_ds needs max degree <= 3, got {lg.graph.max_degree()}")
    lg = lg.copy()
    lg.check()
    stats = Stats()
    vec = run(_NODES[policy](lg, trivial_separation(lg.graph.vertices()), stats, audit), 0)
    return vec, stats
