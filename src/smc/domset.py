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
branched on.  They are swept up by the terminal counters instead: a
connected component that is a path, a cycle, or — more generally — has
at most CORE_LIMIT degree-3 vertices is counted by a transfer DP along
its degree-2 chains, and anything else of at most ENUM_LIMIT vertices
falls back to pruned enumeration.  Branch pivots come from the same
separator-case ladder the Max 2-CSP solver uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counts import CountVector
from .graph import Graph, connected_components, cubic_structure, induced_subgraph, parse_graph
from .policy import PivotAction, apply_move, deg3_side_counts, separator_case
from .separator import Separation, separate_cubic, trivial_separation, verify_separation

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
        assert set(self.label) == set(self.graph.vertices()), "labels must be total"
        assert all(l in LABELS for l in self.label.values())
        for v in self.graph.vertices():
            if self.graph.degree(v) == 3:
                assert self.label[v] == U, f"degree-3 vertex {v} labeled {self.label[v]}"

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


ENUM_LIMIT = 20  # component size cap for the enumeration fallback
CORE_LIMIT = 12  # degree-3 core size cap for the chain-transfer DP


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


# -- terminal counters ---------------------------------------------------------
#
# A vertex of degree <= 2 lies on a chain: a maximal run of degree <= 2
# vertices with zero, one, or two attachments to degree-3 "core"
# vertices.  A connected labeled graph therefore decomposes into its
# core plus chains, and the whole count is a sweep over the core with a
# transfer DP along each chain.  Components without any core are bare
# paths or cycles, handled by the same chain DP directly.


def _isolated_factor(lab: str) -> CountVector:
    if lab == U:
        return CountVector((0, 1))  # only its own membership dominates it
    if lab == N:
        return CountVector.zero()  # needs a dominator it cannot have
    return CountVector((1, 1))


def _needs(lab: str) -> bool:
    return lab != C


def _chain_table(
    lg: LabeledGraph, seq: list[int], m_a: int | None, m_b: int | None
) -> dict[tuple[int, int], CountVector]:
    """Transfer DP along a chain of degree <= 2 vertices.

    m_a / m_b are the memberships of the attachment vertices at either
    end (None = no attachment, the chain just ends).  Returns, keyed by
    (first vertex in set, last vertex in set), the count vector of
    internal configurations by internal set size.  Those two bits are
    what the ends export: whether the chain dominates its attachments.
    With no attachment at the start nothing reads the first bit, so it
    is kept at 0 and the states halve.
    """
    # states: (first membership, previous membership, previous vertex
    #          still undominated) -> counts by size
    state: dict[tuple[int, int, int], CountVector] = {}
    v0 = seq[0]
    for c in (0, 1) if lg.label[v0] != N else (0,):
        pend = int(_needs(lg.label[v0]) and not c and not (m_a or 0))
        state[(c if m_a is not None else 0, c, pend)] = CountVector.unit(c)
    for v in seq[1:]:
        nxt: dict[tuple[int, int, int], CountVector] = {}
        for (c0, cp, pend), cnt in state.items():
            for c in (0, 1) if lg.label[v] != N else (0,):
                if pend and not c:
                    continue  # the previous vertex ran out of dominators
                np = int(_needs(lg.label[v]) and not c and not cp)
                _merge(nxt, (c0, c, np), cnt.shift(1) if c else cnt)
        state = nxt
    out: dict[tuple[int, int], CountVector] = {}
    for (c0, cp, pend), cnt in state.items():
        if pend and not (m_b or 0):
            continue
        _merge(out, (c0, cp), cnt)
    return out


def _merge(table: dict, key: tuple, vec: CountVector) -> None:
    cur = table.get(key)
    table[key] = vec if cur is None else cur + vec


def _path_count(lg: LabeledGraph, seq: list[int]) -> CountVector:
    return sum(_chain_table(lg, seq, None, None).values(), CountVector.zero())


def _cycle_count(lg: LabeledGraph, seq: list[int]) -> CountVector:
    """Transfer DP around a cycle; the first vertex's domination by the
    last one is deferred until the ends meet."""
    v0 = seq[0]
    total = CountVector.zero()
    for c0 in (0, 1) if lg.label[v0] != N else (0,):
        # state: (previous membership, previous pending, first pending)
        state: dict[tuple[int, int, int], CountVector] = {
            (c0, 0, int(_needs(lg.label[v0]) and not c0)): CountVector.unit(c0)
        }
        for pos, v in enumerate(seq[1:]):
            nxt: dict[tuple[int, int, int], CountVector] = {}
            for (cp, pend, first), cnt in state.items():
                for c in (0, 1) if lg.label[v] != N else (0,):
                    if pend and not c:
                        continue
                    np = int(_needs(lg.label[v]) and not c and not cp)
                    # only the second vertex can clear the first one early
                    nf = int(first and not c) if pos == 0 else first
                    _merge(nxt, (c, np, nf), cnt.shift(1) if c else cnt)
            state = nxt
        for (cp, pend, first), cnt in state.items():
            if pend and not c0:
                continue  # last vertex only has the first one left
            if first and not cp:
                continue  # first vertex only has the last one left
            total = total + cnt
    return total


def _chains_of(g: Graph, cores: set[int]) -> list[tuple[int, int | None, list[int]]]:
    """Decompose a connected component into (core_a, core_b, internals).

    Walks the degree <= 2 runs from every core edge slot.  core_b is
    None for a pendant chain (the run ends at a degree <= 1 vertex);
    internals is empty for a direct core-core edge.
    """
    chains: list[tuple[int, int | None, list[int]]] = []
    seen_internal: set[int] = set()
    seen_core_edge: set[tuple[int, int]] = set()
    for a in sorted(cores):
        for w in g.neighbors(a):
            if w in cores:
                key = (min(a, w), max(a, w))
                if key not in seen_core_edge:
                    seen_core_edge.add(key)
                    chains.append((a, w, []))
                continue
            if w in seen_internal:
                continue
            run = [w]
            seen_internal.add(w)
            prev, cur = a, w
            stop: int | None = None
            while True:
                nxts = [u for u in g.neighbors(cur) if u != prev]
                if not nxts:
                    break  # pendant end
                prev, cur = cur, nxts[0]
                if cur in cores:
                    stop = cur
                    break
                run.append(cur)
                seen_internal.add(cur)
            chains.append((a, stop, run))
    return chains


def _core_count(lg: LabeledGraph) -> CountVector:
    """Count over a connected component by sweeping its degree-3 core.

    Core vertices are introduced one at a time (both memberships,
    tracking whether each is dominated yet); each chain is folded in as
    soon as both of its attachments are live, and a core vertex is
    discharged once its three edge slots are all folded.  The live core
    front stays small for the component shapes this is invoked on, so
    the sweep is cheap even though the state is exponential in the
    front.  Every state holds a ``CountVector``: introducing a member
    shifts it, folding a chain convolves it with the chain's table entry,
    and states that meet under one key add up.
    """
    g = lg.graph
    cores = {v for v in g.vertices() if g.degree(v) == 3}
    assert cores, "core sweep needs at least one degree-3 vertex"
    for a in cores:
        assert lg.label[a] == U
    chains = _chains_of(g, cores)
    tables = [
        {
            (m_a, m_b): _chain_table(lg, run, m_a, m_b)
            for m_a in (0, 1)
            for m_b in ((0, 1) if b is not None else (None,))
        }
        if run
        else None  # direct core-core edge: no internal vertices
        for (a, b, run) in chains
    ]

    # fold order: cores by BFS over chain adjacency, chains as soon as ready
    order: list[int] = []
    seen = set()
    adj: dict[int, list[int]] = {a: [] for a in cores}
    for a, b, _ in chains:
        if b is not None and b != a:
            adj[a].append(b)
            adj[b].append(a)
    for start in sorted(cores):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(adj[v]):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)

    slots = {a: 0 for a in cores}  # folded edge slots per core
    # state: frozen tuple of (core, membership, dominated) -> counts by size
    state: dict[tuple, CountVector] = {(): CountVector.one()}
    live: set[int] = set()
    folded = [False] * len(chains)

    def fold(ci: int) -> None:
        nonlocal state
        a, b, run = chains[ci]
        nxt: dict[tuple, CountVector] = {}
        for key, cnt in state.items():
            kd = dict((c, (m, d)) for c, m, d in key)
            m_a, d_a = kd[a]
            if b is not None:
                m_b, d_b = kd[b]
            if not run:
                # direct edge: each endpoint dominates the other if taken
                kd[a] = (m_a, d_a or m_b)
                kd[b] = (m_b, d_b or m_a)
                nkey = tuple((c,) + kd[c] for c in sorted(kd))
                _merge(nxt, nkey, cnt)
            else:
                tab = tables[ci][(m_a, m_b if b is not None else None)]
                for (first_in, last_in), sub in tab.items():
                    kd2 = dict(kd)
                    kd2[a] = (m_a, d_a or first_in)
                    if b is not None:
                        mb, db = kd2[b]
                        kd2[b] = (mb, db or last_in)
                    nkey = tuple((c,) + kd2[c] for c in sorted(kd2))
                    _merge(nxt, nkey, cnt.convolve(sub))
        state = nxt

    def discharge(a: int) -> None:
        nonlocal state
        nxt: dict[tuple, CountVector] = {}
        for key, cnt in state.items():
            keep = []
            ok = True
            for c, m, d in key:
                if c == a:
                    if not (m or d):
                        ok = False  # an undominated core vertex is final here
                        break
                else:
                    keep.append((c, m, d))
            if ok:
                _merge(nxt, tuple(keep), cnt)
        state = nxt

    chain_ends = [(a, b) for a, b, _ in chains]
    for a in order:
        # introduce a
        nxt: dict[tuple, CountVector] = {}
        for key, cnt in state.items():
            for m in (0, 1):
                nkey = tuple(sorted(key + ((a, m, 0),)))
                _merge(nxt, nkey, cnt.shift(1) if m else cnt)
        state = nxt
        live.add(a)
        for ci, (ca, cb) in enumerate(chain_ends):
            if folded[ci]:
                continue
            if ca in live and (cb is None or cb in live):
                fold(ci)
                folded[ci] = True
                slots[ca] += 1
                if cb is not None:
                    slots[cb] += 1  # a chain looping back spends two slots of ca
        for c in sorted(live.copy()):
            if slots[c] == 3:
                discharge(c)
                live.discard(c)
    assert all(folded) and not live
    assert all(key == () for key in state)
    return sum(state.values(), CountVector.zero())


def _enum_count(lg: LabeledGraph) -> CountVector:
    """Pruned enumeration over subsets of one component.

    Vertices are decided in id order; a vertex is settled once the last
    of its closed neighborhood is decided, and an undominated settled
    U/N vertex kills the whole subtree.
    """
    g = lg.graph
    vs = g.vertices()
    n = len(vs)
    idx = {v: i for i, v in enumerate(vs)}
    closed = [1 << i | sum(1 << idx[u] for u in g.neighbors(vs[i])) for i in range(n)]
    labs = [lg.label[v] for v in vs]
    settle_at: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        last = max(i, max((idx[u] for u in g.neighbors(vs[i])), default=i))
        if labs[i] != C:
            settle_at[last].append(i)
    counts = [0] * (n + 1)

    def go(i: int, dom: int, size: int) -> None:
        if i == n:
            counts[size] += 1
            return
        choices = (0,) if labs[i] == N else (0, 1)
        for c in choices:
            nd = dom | closed[i] if c else dom
            if all(nd >> j & 1 for j in settle_at[i]):
                go(i + 1, nd, size + c)

    go(0, 0, 0)
    return CountVector(counts)


def _linear_order(g: Graph) -> tuple[list[int], bool]:
    """(traversal order, is_path) for a connected graph of max degree 2."""
    ends = [v for v in g.vertices() if g.degree(v) <= 1]
    start = min(ends) if ends else min(g.vertices())
    order = [start]
    prev = None
    cur = start
    while len(order) < g.n:
        nxt = min(u for u in g.neighbors(cur) if u != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    return order, bool(ends)


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
    enum_calls: int = 0
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
    and total <= 2^n at every vector-producing return.  Branches also
    compare the cubic-structure size before and after: a branch whose
    children shrink it by less than one vertex is logged, not asserted
    (the deleted pivot is expected to leave the structure, which a
    pendant-supported pivot need not).
    """

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.entries: list[DsAuditEntry] = []
        self.gamma_flags: list[str] = []

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

    def check_branch(self, parent: Graph, children: tuple[LabeledGraph, ...]) -> None:
        gp = len(cubic_structure(parent).vertices())
        for child in children:
            gc = len(cubic_structure(child.graph).vertices())
            if gp and gc > gp - 1:
                self.gamma_flags.append(f"cubic structure {gp} -> {gc} at a branch")


@dataclass
class _Env:
    policy: str
    stats: DsStats
    audit: DsAudit | None
    seed: int


def _sub_labeled(lg: LabeledGraph, comp: list[int]) -> LabeledGraph:
    return LabeledGraph(
        induced_subgraph(lg.graph, comp), {v: lg.label[v] for v in comp}
    )


def _project(sep: Separation, child: LabeledGraph) -> Separation:
    keep = set(child.graph.vertices())
    return Separation(sep.left & keep, sep.sep & keep, sep.right & keep)


def _terminal(lg: LabeledGraph, env: _Env) -> tuple[str, CountVector] | None:
    """Count a connected component outright when no branching is needed.

    Preference order: isolated-vertex factor, chain DP (paths, cycles,
    and anything whose degree-3 core fits the sweep), then pruned
    enumeration as the small-component fallback.
    """
    g = lg.graph
    if g.n == 1:
        return "leaf-isolated", _isolated_factor(lg.label[g.vertices()[0]])
    if g.max_degree() <= 2:
        env.stats.dp_calls += 1
        order, is_path = _linear_order(g)
        if is_path:
            return "dp-path", _path_count(lg, order)
        return "dp-cycle", _cycle_count(lg, order)
    if sum(1 for v in g.vertices() if g.degree(v) == 3) <= CORE_LIMIT:
        env.stats.dp_calls += 1
        return "dp-core", _core_count(lg)
    if g.n <= ENUM_LIMIT:
        env.stats.enum_calls += 1
        return "enum", _enum_count(lg)
    return None


def _rec(lg: LabeledGraph, sep: Separation, env: _Env, depth: int, resep_n: int = -1) -> CountVector:
    env.stats.max_depth = max(env.stats.max_depth, depth)
    g = lg.graph
    audit = env.audit
    if audit is not None:
        assert verify_separation(g, sep), "separation invalid at recursive call"
        lg.check()
    if g.n == 0:
        env.stats.leaves += 1
        vec = CountVector.one()
        if audit is not None:
            audit.check_return("leaf", 0, vec)
        return vec
    l3, r3 = deg3_side_counts(g, sep)
    if l3 > r3:
        sep.swap()
    comps = connected_components(g)
    if len(comps) > 1:
        vec = CountVector.one()
        for comp in comps:
            sub = _sub_labeled(lg, comp)
            vec = vec.convolve(_rec(sub, _project(sep, sub), env, depth + 1))
        if audit is not None:
            audit.check_return("split", g.n, vec)
        return vec
    term = _terminal(lg, env)
    if term is not None:
        kind, vec = term
        env.stats.leaves += 1
        if audit is not None:
            audit.check_return(kind, g.n, vec)
        return vec
    if not sep.sep:
        if g.n != resep_n:
            sep2 = separate_cubic(g, seed=env.seed)
            env.stats.separator_recomputes += 1
            return _rec(lg, sep2, env, depth + 1, resep_n=g.n)
        # the case ladder consumed the whole separator without deleting
        # anything, so re-separating would reproduce the cycle; branch
        # once on a concrete vertex to shrink the graph instead
        y = min(v for v in g.vertices() if g.degree(v) == 3)
        return _branch(lg, y, sep, env, depth, "stall")
    act = select_pivot_ds(lg, sep)
    if act.kind == "branch":
        return _branch(lg, act.vertex, sep, env, depth, "branch")
    apply_move(sep, act, g.neighbor_sets().__getitem__)
    return _rec(lg, sep, env, depth + 1, resep_n=resep_n)


def _branch(lg: LabeledGraph, y: int, sep: Separation, env: _Env, depth: int, kind: str) -> CountVector:
    children = branch3(lg, y)
    env.stats.branchings += 1
    audit = env.audit
    if audit is not None:
        audit.check_branch(lg.graph, children)
    g_in, g_opt, g_forb = children
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
        children = branch3(lg, deg3[0])
        env.stats.branchings += 1
        if audit is not None:
            audit.check_branch(g, children)
        g_in, g_opt, g_forb = children
        vec = (
            _rec_local(g_in, env, depth + 1).shift(1)
            + _rec_local(g_opt, env, depth + 1)
            - _rec_local(g_forb, env, depth + 1)
        )
        if audit is not None:
            audit.check_return("branch", g.n, vec)
        return vec
    env.stats.leaves += 1
    vec = CountVector.one()
    for comp in connected_components(g):
        sub = _sub_labeled(lg, comp)
        if len(comp) == 1:
            part = _isolated_factor(sub.label[comp[0]])
        else:
            env.stats.dp_calls += 1
            order, is_path = _linear_order(sub.graph)
            part = _path_count(sub, order) if is_path else _cycle_count(sub, order)
        vec = vec.convolve(part)
    if audit is not None:
        audit.check_return("flat", g.n, vec)
    return vec


def count_ds(
    lg: LabeledGraph,
    sep: Separation | None = None,
    policy: str = "separator",
    audit: DsAudit | None = None,
    seed: int = 0,
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
    lg = lg.copy()
    lg.check()
    stats = DsStats()
    env = _Env(policy, stats, audit, seed)
    if policy == "separator":
        start = trivial_separation(lg.graph.vertices()) if sep is None else sep.copy()
        vec = _rec(lg, start, env, 0)
    else:
        vec = _rec_local(lg, env, 0)
    return vec, stats
