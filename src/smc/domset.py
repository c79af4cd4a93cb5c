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
with three states per bag vertex: a connected component is counted
outright when it has max degree <= 2 (walked as a path or cycle) or a
nice path decomposition of width at most ``PD_WIDTH_CAP``.  Branch
pivots come from the same separator-case ladder the Max 2-CSP solver
uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counts import CountVector, add_into
from .graph import Graph, connected_components, induced_subgraph, parse_graph
from .policy import PivotAction, apply_move, deg3_side_counts, separator_case
from .separator import (
    PD_WIDTH_CAP,
    PathDecomposition,
    Separation,
    nice_path_decomposition,
    path_decomposition,
    separate_cubic,
    trivial_separation,
    verify_separation,
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
    """Graph text format plus optional ``label <id> <U|N|C>`` lines (default U)."""
    graph_lines: list[str] = []
    label_rows: list[tuple[int, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("label"):
            parts = line.split()
            if len(parts) != 3 or parts[2] not in LABELS:
                raise ValueError(f"bad label line {line!r}")
            label_rows.append((int(parts[1]), parts[2]))
        else:
            graph_lines.append(raw)
    g = parse_graph("\n".join(graph_lines))
    lg = LabeledGraph.all_u(g)
    for v, lab in label_rows:
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


# -- pivot selection -----------------------------------------------------------


def select_pivot_ds(lg: LabeledGraph, sep: Separation) -> PivotAction:
    """Next engine action for a component that still needs branching.

    Degree <= 2 separator vertices are cleared first: one with a free
    side is dragged there, and one caught between both sides is dragged
    out together with its whole degree-2 run (toward R when the
    degree-3 side counts are near-balanced, toward L otherwise), the
    stopping vertex of the run taking its place in the separator.  Once
    S is all degree 3, the shared separator-case ladder decides.  Its
    rotation is kept only when the replacement vertex has degree 3, or
    degree 2 with its other neighbor already in S (then both move left
    together); pulling any other degree-2 vertex into S could drag
    forever, so those profiles branch directly.
    """
    g = lg.graph
    low = [s for s in sorted(sep.sep) if g.degree(s) <= 2]
    if low:
        s = low[0]
        nsides = {sep.side_of(u) for u in g.neighbors(s)}
        if "L" not in nsides:
            return PivotAction("drag-R", s)
        if "R" not in nsides:
            return PivotAction("drag-L", s)
        l3, r3 = deg3_side_counts(g, sep)
        if r3 <= l3 + 1:
            return PivotAction("drag-path-R", s)
        return PivotAction("drag-path-L", s)
    act = separator_case(g, sep)
    if act.kind == "rotate" and g.degree(act.partner) != 3:
        other = [u for u in g.neighbors(act.partner) if u != act.vertex]
        if g.degree(act.partner) == 2 and sep.side_of(other[0]) == "S":
            return PivotAction("rotate-pair", act.vertex, act.partner)
        return PivotAction("branch", act.vertex)
    return act


# -- counting engine -----------------------------------------------------------


@dataclass
class DsStats:
    branchings: int = 0
    leaves: int = 0
    dp_calls: int = 0
    max_depth: int = 0
    separator_recomputes: int = 0


@dataclass
class DsAuditEntry:
    kind: str
    n: int
    nonneg_ok: bool
    sum_ok: bool
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.nonneg_ok and self.sum_ok


class DsAudit:
    """Counting invariants checked whenever the engine produces a vector.

    The branch recombination subtracts the forbidden child, so a bug
    would typically show up as a negative entry or an impossible total;
    audit mode asserts entrywise nonnegativity, no mass above index n,
    and total <= 2^n at every vector-producing return.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.entries: list[DsAuditEntry] = []

    @property
    def violations(self) -> list[DsAuditEntry]:
        return [e for e in self.entries if not e.ok]

    def check_return(self, kind: str, n: int, vec: CountVector, note: str = "") -> None:
        nonneg = vec.is_nonnegative()
        fits = not any(vec.counts[n + 1 :])
        sum_ok = fits and vec.total() <= 2**n
        entry = DsAuditEntry(kind, n, nonneg, sum_ok, note)
        self.entries.append(entry)
        if self.strict and not entry.ok:
            raise AssertionError(f"count audit violation at {kind}: {entry}")


@dataclass
class _Env:
    stats: DsStats
    audit: DsAudit | None


def _sub_labeled(lg: LabeledGraph, comp: list[int]) -> LabeledGraph:
    return LabeledGraph(
        induced_subgraph(lg.graph, comp), {v: lg.label[v] for v in comp}
    )


def _project(sep: Separation, child: LabeledGraph) -> Separation:
    keep = set(child.graph.vertices())
    return Separation(sep.left & keep, sep.sep & keep, sep.right & keep)


def _terminal(lg: LabeledGraph, env: _Env) -> tuple[CountVector | None, PathDecomposition]:
    """(count, decomposition) of a connected component: counted by
    ``ds_dp`` when it has max degree <= 2 (along its walk order) or a nice
    path decomposition of width at most PD_WIDTH_CAP, else (None, that
    wider decomposition), which the caller separates from."""
    g = lg.graph
    if g.max_degree() <= 2:
        decomp = path_decomposition(g, _linear_order(g))
    else:
        decomp = nice_path_decomposition(g)
        if decomp.width > PD_WIDTH_CAP:
            return None, decomp
    env.stats.dp_calls += 1
    return ds_dp(lg, decomp), decomp


def _rec(lg: LabeledGraph, sep: Separation, env: _Env, depth: int) -> CountVector:
    """Count of lg under the separation sep; consumes sep.  Moves and the
    re-separation, which sweeps ``_terminal``'s wide decomposition, leave
    the graph as it is and loop in place, one level of depth each."""
    stats, audit, g = env.stats, env.audit, lg.graph
    decomp, resep = None, False  # decomp is set once g is connected and wide
    while True:
        stats.max_depth = max(stats.max_depth, depth)
        if audit is not None:
            assert verify_separation(g, sep), "separation invalid at recursive call"
            lg.check()
        if g.n == 0:
            stats.leaves += 1
            vec = CountVector.one()
            if audit is not None:
                audit.check_return("leaf", 0, vec)
            return vec
        l3, r3 = deg3_side_counts(g, sep)
        if l3 > r3:
            sep.swap()
        if decomp is None:
            comps = connected_components(g)
            if len(comps) > 1:
                vec = CountVector.one()
                for comp in comps:
                    sub = _sub_labeled(lg, comp)
                    vec = vec.convolve(_rec(sub, _project(sep, sub), env, depth + 1))
                if audit is not None:
                    audit.check_return("split", g.n, vec)
                return vec
            vec, decomp = _terminal(lg, env)
            if vec is not None:
                stats.leaves += 1
                if audit is not None:
                    audit.check_return("dp", g.n, vec)
                return vec
        if not sep.sep:
            if not resep:
                sep, resep = separate_cubic(g, decomp), True
                stats.separator_recomputes += 1
                depth += 1
                continue
            # the case ladder consumed the whole separator without deleting
            # anything, so re-separating would reproduce the cycle; branch
            # once on a concrete vertex to shrink the graph instead
            y = min(v for v in g.vertices() if g.degree(v) == 3)
            return _branch(lg, y, sep, env, depth, "stall")
        act = select_pivot_ds(lg, sep)
        if act.kind == "branch":
            return _branch(lg, act.vertex, sep, env, depth, "branch")
        apply_move(sep, act, g.neighbor_sets().__getitem__)
        depth += 1


def _branch(lg: LabeledGraph, y: int, sep: Separation, env: _Env, depth: int, kind: str) -> CountVector:
    g_in, g_opt, g_forb = branch3(lg, y)
    env.stats.branchings += 1
    audit = env.audit
    vec_in = _rec(g_in, _project(sep, g_in), env, depth + 1)
    vec_opt = _rec(g_opt, _project(sep, g_opt), env, depth + 1)
    vec_forb = _rec(g_forb, _project(sep, g_forb), env, depth + 1)
    vec = vec_in.shift(1) + vec_opt - vec_forb
    if audit is not None:
        audit.check_return(kind, lg.graph.n, vec)
    return vec


def _rec_local(lg: LabeledGraph, env: _Env, depth: int) -> CountVector:
    """Branch on the smallest-id degree-3 vertex until none is left, then
    sweep up what remains (paths, cycles, isolated vertices).  No
    separators, no component splits while branching: the baseline the
    pivot-policy comparison runs against."""
    env.stats.max_depth = max(env.stats.max_depth, depth)
    g = lg.graph
    audit = env.audit
    if audit is not None:
        lg.check()
    if g.n == 0:
        env.stats.leaves += 1
        vec = CountVector.one()
        if audit is not None:
            audit.check_return("leaf", 0, vec)
        return vec
    deg3 = [v for v in g.vertices() if g.degree(v) == 3]
    if deg3:
        g_in, g_opt, g_forb = branch3(lg, deg3[0])
        env.stats.branchings += 1
        vec = (
            _rec_local(g_in, env, depth + 1).shift(1)
            + _rec_local(g_opt, env, depth + 1)
            - _rec_local(g_forb, env, depth + 1)
        )
        if audit is not None:
            audit.check_return("branch", g.n, vec)
        return vec
    env.stats.leaves += 1
    env.stats.dp_calls += 1
    vec = ds_dp(lg, path_decomposition(g, _linear_order(g)))
    if audit is not None:
        audit.check_return("flat", g.n, vec)
    return vec


def count_ds(
    lg: LabeledGraph,
    sep: Separation | None = None,
    policy: str = "separator",
    audit: DsAudit | None = None,
) -> tuple[CountVector, DsStats]:
    """Count dominating sets of every size; returns (vector, counters).

    Entry k of the vector is the exact number of vertex sets of size k
    that satisfy every label: U and N vertices dominated, N vertices
    excluded.  The default policy drives branching by separators
    (sep = None starts from the trivial all-R separation and computes a
    real one on demand); policy "local" is the separator-free baseline.
    """
    if policy not in ("separator", "local"):
        raise ValueError(f"unknown policy {policy!r}")
    if lg.graph.max_degree() > 3:
        raise ValueError(f"count_ds needs max degree <= 3, got {lg.graph.max_degree()}")
    lg = lg.copy()
    lg.check()
    stats = DsStats()
    env = _Env(stats, audit)
    if policy == "separator":
        start = trivial_separation(lg.graph.vertices()) if sep is None else sep.copy()
        vec = _rec(lg, start, env, 0)
    else:
        vec = _rec_local(lg, env, 0)
    return vec, stats
