"""Counting set covers per cardinality, and the dominating-set translation.

An instance is carried as its bipartite incidence graph: element vertices
on one side, set vertices on the other, with an edge when the element
belongs to the set.  Solving machinery works on the *active* part I - A,
where A is the set of annotated vertices: annotation removes a vertex
from play without deleting its edges, so annotated vertices can be
resolved exactly at the leaves from the recorded order and neighbor
snapshots.

The engine's one terminal, ``sc_dp``, sweeps a nice path decomposition of
the active part; pieces wider than ``PD_WIDTH_CAP`` are branched on.

Ownership: each node of the shared loop ``policy.run`` owns and consumes
its instance.  Annotations, separator moves and the re-separation change
it in place; only branches and component splits build fresh children and
recurse, so an instance that reduces without branching needs no
recursion.  ``sc_count`` copies the caller's instance once.  The step
order and the stall rule are the loop's, as in the other two engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .counts import CountVector, add_into
from .graph import Graph, induced_subgraph
from .measures import Audit, sc_mu3, sc_mu3_parts, sc_mu4, sc_side_weights, sc_snapshots
from .policy import Node, PivotAction, Stats, apply_move, run
from .separator import (
    PD_WIDTH_CAP,
    PathDecomposition,
    Separation,
    nice_path_decomposition,
    separate_balanced_by_measure,
    trivial_separation,
    verify_separation,
)
from .weights import ScWeights


@dataclass
class Annotation:
    vertex: int
    neighbors: tuple[int, ...]  # active neighbors at annotation time


@dataclass
class ScIncidence:
    incidence: Graph
    set_ids: set[int]
    annotated: set[int] = field(default_factory=set)
    sep: Separation = field(default_factory=lambda: Separation(set(), set(), set()))
    annotation_log: list[Annotation] = field(default_factory=list)

    def copy(self) -> "ScIncidence":
        return ScIncidence(
            self.incidence.copy(),
            set(self.set_ids),
            set(self.annotated),
            self.sep.copy(),
            list(self.annotation_log),
        )

    def element_ids(self) -> list[int]:
        return [v for v in self.incidence.vertices() if v not in self.set_ids]

    def is_set(self, v: int) -> bool:
        return v in self.set_ids

    # -- the active instance I - A ------------------------------------------

    def active_vertices(self) -> list[int]:
        return [v for v in self.incidence.vertices() if v not in self.annotated]

    def active_neighbors(self, v: int) -> list[int]:
        return [u for u in self.incidence.neighbors(v) if u not in self.annotated]

    def active_degree(self, v: int) -> int:
        return len(self.incidence.neighbor_sets()[v] - self.annotated)

    def active_graph(self) -> Graph:
        return induced_subgraph(
            self.incidence, set(self.incidence.vertices()) - self.annotated
        )

    def check(self) -> None:
        for v in self.incidence.vertices():
            sv = self.is_set(v)
            for u in self.incidence.neighbors(v):
                assert self.is_set(u) != sv, f"edge ({v},{u}) not across roles"
        assert self.annotated <= set(self.incidence.vertices())
        active = set(self.incidence.vertices()) - self.annotated
        assert self.sep.vertices() == active, "sep must partition I - A"
        assert verify_separation(self.active_graph(), self.sep)


def ds_to_sc(g: Graph) -> ScIncidence:
    """Dominating sets of g as set covers: one element per vertex, one set
    per closed neighborhood.  Element i and set n+i follow sorted vertex
    order; a size-k dominating set corresponds to a size-k cover."""
    vs = g.vertices()
    n = len(vs)
    idx = {v: i for i, v in enumerate(vs)}
    inc = Graph(range(2 * n))
    for i, v in enumerate(vs):
        inc.add_edge(i, n + i)  # v in N[v]
        for u in g.neighbors(v):
            inc.add_edge(idx[u], n + i)
    return ScIncidence(inc, set(range(n, 2 * n)), sep=trivial_separation(range(2 * n)))


# -- text format -----------------------------------------------------------------
#
# "setcover <|U|> <|S|>" then one line per set: "set <j> <element ids...>"
# with j in 0..|S|-1 (its incidence-vertex id is |U|+j) and elements
# 0-based.  '#' comments.  Empty sets are legal.


def parse_sc(text: str) -> ScIncidence:
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows or rows[0][0] != "setcover" or len(rows[0]) != 3:
        raise ValueError("expected header 'setcover <|U|> <|S|>'")
    n_u, n_s = int(rows[0][1]), int(rows[0][2])
    if n_u < 0 or n_s < 0:
        raise ValueError(f"negative size in header 'setcover {n_u} {n_s}'")
    inc = Graph(range(n_u + n_s))
    seen: set[int] = set()
    for row in rows[1:]:
        if row[0] != "set" or len(row) < 2:
            raise ValueError(f"bad set line {' '.join(row)!r}")
        j = int(row[1])
        if not 0 <= j < n_s or j in seen:
            raise ValueError(f"bad or repeated set id {j}")
        seen.add(j)
        for tok in row[2:]:
            e = int(tok)
            if not 0 <= e < n_u:
                raise ValueError(f"element {e} out of range")
            inc.add_edge(e, n_u + j)
    if len(seen) != n_s:
        raise ValueError(f"header promises {n_s} sets, found {len(seen)}")
    return ScIncidence(
        inc, set(range(n_u, n_u + n_s)), sep=trivial_separation(range(n_u + n_s))
    )


def format_sc(inst: ScIncidence) -> str:
    if inst.annotated:
        raise ValueError("cannot format an instance with annotations")
    elems = inst.element_ids()
    n_u = len(elems)
    if elems != list(range(n_u)) or sorted(inst.set_ids) != list(
        range(n_u, n_u + len(inst.set_ids))
    ):
        raise ValueError("text format needs elements 0..|U|-1 then sets")
    lines = [f"setcover {n_u} {len(inst.set_ids)}"]
    for j, s in enumerate(sorted(inst.set_ids)):
        members = " ".join(str(e) for e in inst.incidence.neighbors(s))
        lines.append(f"set {j} {members}".rstrip())
    return "\n".join(lines) + "\n"


# -- leaf counting: one sweep over a path decomposition ---------------------


def _fold_set_under(target: tuple[CountVector, CountVector],
                    va: CountVector, vb: CountVector,
                    ) -> tuple[CountVector, CountVector]:
    """Absorb a set pair (covers=va, idle=vb) into the vertex it hangs on.

    The target's first component gains the cross term: a taken pendant
    set does the covering even when the target's own slot is idle (twin
    set) or unsatisfied (element).
    """
    ta, tb = target
    return ta.convolve(va + vb) + tb.convolve(va), tb.convolve(vb)


def _fold_elt_under(target: tuple[CountVector, CountVector],
                    va: CountVector, vb: CountVector,
                    ) -> tuple[CountVector, CountVector]:
    """Absorb an element pair (sat=va, pend=vb) into its remaining set.

    The set's idle branch survives only when the element was already
    satisfied inside the folded material; taking the set frees both
    branches of the element."""
    ta, tb = target
    return ta.convolve(va + vb), tb.convolve(va)


def sc_dp(inst: ScIncidence, decomp: PathDecomposition) -> CountVector:
    """Exact cover counts by one sweep over `decomp`, a nice path
    decomposition of the active part, with up to 2^(width+1) states.

    Annotated vertices are first folded back in annotation order.  Every
    vertex carries a generating-function pair over the choices in the
    material already folded onto it:

      set vertex:      (covers, idle)  split by whether its slot covers
                       the remaining neighbors       (base z, 1);
      element vertex:  (sat, pend)     split by whether it is already
                       covered inside the folded part (base 0, 1).

    An annotated vertex folds onto its single surviving snapshot
    neighbor, or onto its duplicate twin when both snapshot neighbors
    survive; if nothing survives it folds into a global factor, which is
    exact because a deleted set is never taken and a deleted element
    needs no cover.

    The sweep's state is the bitmask of "on" bag vertices: sets that
    cover and elements still pending.  Every edge lies in some bag, so a
    covering neighbor meets each element in one; forgetting a pending
    element drops the state.
    """
    g = inst.incidence
    assert {a.vertex for a in inst.annotation_log} == set(inst.annotated), (
        "every annotated vertex needs a log entry")

    pairs: dict[int, tuple[CountVector, CountVector]] = {}
    for v in g.vertices():
        if inst.is_set(v):
            pairs[v] = (CountVector.unit(1), CountVector.one())
        else:
            pairs[v] = (CountVector.zero(), CountVector.one())

    live = set(g.vertices())
    absorbed: set[int] = set()

    def nbrs_now(u: int) -> set[int]:
        return {x for x in g.neighbors(u) if x not in absorbed}

    total = CountVector.one()
    for a in inst.annotation_log:
        v = a.vertex
        va, vb = pairs[v]
        targets = [u for u in a.neighbors if u in live and u not in absorbed]
        if len(targets) == 2:
            # Duplicate: some un-absorbed same-role twin shares exactly
            # these two neighbors (branches can only delete a twin by
            # deleting v as well, so it is still here).
            cands = [u for u in live
                     if u != v and u not in absorbed
                     and inst.is_set(u) == inst.is_set(v)
                     and nbrs_now(u) == set(targets)]
            assert cands, f"duplicate-annotated {v} lost its twin"
            tw = min(cands)
            if inst.is_set(v):
                # slot semantics: covers iff at least one of the pair taken
                pairs[tw] = _fold_set_under(pairs[tw], va, vb)
            else:
                # both elements need the same outside cover unless satisfied
                ta, tb = pairs[tw]
                sat = ta.convolve(va)
                both = (ta + tb).convolve(va + vb)
                pairs[tw] = (sat, both - sat)
        elif len(targets) == 1:
            fold = _fold_set_under if inst.is_set(v) else _fold_elt_under
            pairs[targets[0]] = fold(pairs[targets[0]], va, vb)
        else:
            total = total.convolve(va + vb if inst.is_set(v) else va)
        absorbed.add(v)

    adj = g.neighbor_sets()
    bit: dict[int, int] = {}  # bag vertex -> its state bit
    states = {0: CountVector.one()}
    prev: frozenset[int] = frozenset()
    # the last bag is not empty: a closing empty bag forgets what it holds
    for bag in [*decomp.bags, frozenset()]:
        for v in prev - bag:
            b = bit.pop(v)
            new: dict[int, CountVector] = {}
            for s, acc in states.items():
                if inst.is_set(v) or not s & b:  # a pending element stays uncovered
                    add_into(new, s & ~b, acc)
            states = new
        for v in bag - prev:
            used = sum(bit.values())
            bit[v] = b = ~used & (used + 1)  # the lowest free bit
            nb = sum(bit.get(u, 0) for u in adj[v])
            new = {}
            if inst.is_set(v):  # taking it covers its pending neighbors
                covers, idle = pairs[v]
                for s, acc in states.items():
                    add_into(new, s, acc.convolve(idle))
                    add_into(new, (s & ~nb) | b, acc.convolve(covers))
            else:
                sat, pend = pairs[v]
                either = sat + pend
                for s, acc in states.items():
                    if s & nb:  # a covering set is already in the bag
                        add_into(new, s, acc.convolve(either))
                    else:
                        add_into(new, s, acc.convolve(sat))
                        add_into(new, s | b, acc.convolve(pend))
            states = new
        prev = bag
    return total.convolve(states.get(0, CountVector.zero()))


# -- engine ------------------------------------------------------------------


def _component(inst: ScIncidence, comp: list[int]) -> ScIncidence:
    keep = set(comp)
    return ScIncidence(
        induced_subgraph(inst.incidence, keep),
        set(inst.set_ids) & keep,
        set(inst.annotated) & keep,
        trivial_separation(keep - inst.annotated),
        [a for a in inst.annotation_log if a.vertex in keep],
    )


def _without(inst: ScIncidence, doomed: set[int],
             reset_sep: bool = False) -> ScIncidence:
    child = inst.copy()
    for v in doomed:
        child.incidence.delete_vertex(v)
        child.annotated.discard(v)
        child.set_ids.discard(v)
        child.sep.discard(v)
    child.annotation_log = [a for a in child.annotation_log
                            if a.vertex not in doomed]
    if reset_sep:
        child.sep = trivial_separation(child.active_vertices())
    return child


def _find_duplicate(inst: ScIncidence) -> int | None:
    """Smallest active degree-2 vertex sharing both neighbors with a twin."""
    sig: dict[tuple[bool, frozenset[int]], list[int]] = {}
    for v in sorted(inst.active_vertices()):
        if inst.active_degree(v) == 2:
            key = (inst.is_set(v), frozenset(inst.active_neighbors(v)))
            sig.setdefault(key, []).append(v)
    twins = [vs[0] for vs in sig.values() if len(vs) >= 2]
    return min(twins) if twins else None


def sc_count(inst: ScIncidence, weights: ScWeights | None = None,
             audit: Audit | None = None) -> tuple[CountVector, Stats]:
    """Count set covers of every cardinality (duplicate sets distinct).

    ``sc_dp`` counts a piece of maximum degree 2, and a node whose path
    decomposition has width at most ``PD_WIDTH_CAP`` where it would
    branch in the general phase, where it re-separates, and where it
    branches on the ladder with no current decomposition.  Wider pieces
    branch on sets/elements of degree >= 4 until the incidence graph is
    subcubic, then follow the separator ladder.  `weights` (the published
    table by default) set the separator balance, and the audit measures
    with them.

    Audit: hard steps must satisfy Σ_j 2^μ(I_j) ≤ 2^μ(I), with μ = μ₄
    while some active degree is ≥ 4 and μ = μ₃ in the subcubic phase, and
    drop a potential by 1: the active count at annotations and general
    branches, the progress potential on the separator ladder.  Splits,
    the μ₃ ≤ μ₄ handover, re-separations and stall branches are logged
    only: their quality rests on the separator, not on the weights.
    """
    work = inst.copy()
    work.check()
    stats = Stats()
    return run(_Node(work, weights or ScWeights.published(), stats, audit), 0), stats


class _Node(Node):
    """A set-cover instance for ``policy.run``: the loop splits its
    incidence graph and moves ``inst.sep``, the separation of its active
    part.  Annotations simplify it.  Off the ladder it counts a piece of
    max degree 2 and settles the general phase (an active degree >= 4).
    `frozen` is μ₃'s log argument since the last re-separation or the
    handover to the subcubic phase."""

    sep = property(lambda self: self.inst.sep)

    def __init__(self, inst: ScIncidence, weights: ScWeights, stats: Stats,
                 audit: Audit | None, frozen: Fraction | None = None):
        self.inst, self.graph, self.w, self.frozen = inst, inst.incidence, weights, frozen
        self.stats, self.audit = stats, audit

    def check(self) -> None:
        self.inst.check()

    def leaf(self) -> CountVector:
        if self.audit:
            self.audit.step("leaf", 2, sc_snapshots(self.inst, self.w)(self.inst), [])
        return CountVector.one()

    def split(self, parts, depth) -> CountVector:
        children = [_component(self.inst, comp) for comp in parts]
        if self.audit:
            snap = sc_snapshots(self.inst, self.w)
            self.audit.step("split", 2, snap(self.inst), [snap(c) for c in children],
                            hard=False, note=f"{len(parts)} parts")
        vec = CountVector.one()
        for child in children:
            vec = vec.convolve(run(_Node(child, self.w, self.stats, self.audit), depth))
        return vec

    def orient(self) -> None:
        """Make the lighter side L, by the μ_r weight of each side, and keep
        their difference μ_r(R) − μ_r(L) as ``gap`` for ``pivot``: nothing
        that ``run`` does between the two changes the weights.  Only the
        ladder reads the sides, so a separation with S = ∅ is left as is."""
        if self.inst.sep.sep:
            mu_l, _, mu_r = sc_side_weights(self.inst, self.w)
            if mu_l > mu_r:
                self.inst.sep.swap()
            self.gap = abs(mu_r - mu_l)

    def simplify(self) -> bool:
        """Annotate a degree <= 1 vertex, else a duplicate degree-2 one."""
        inst, aud = self.inst, self.audit
        low = [v for v in inst.active_vertices() if inst.active_degree(v) <= 1]
        v = min(low) if low else _find_duplicate(inst)
        if v is None:
            return False
        if aud:
            snap = sc_snapshots(inst, self.w, self.frozen)
            before = snap(inst)
        inst.annotation_log.append(Annotation(v, tuple(inst.active_neighbors(v))))
        inst.annotated.add(v)
        inst.sep.discard(v)
        self.stats.annotations += 1
        if aud:
            aud.step("annotate", 2, before, [snap(inst)], falls=("active",),
                     note=f"v={v}" if low else f"dup v={v}")
        return True

    def direct(self, depth) -> CountVector | None:
        inst, w = self.inst, self.w
        degs = [(inst.active_degree(v), inst.is_set(v)) for v in inst.active_vertices()]
        d_set = max((d for d, is_set in degs if is_set), default=0)
        d_elt = max((d for d, is_set in degs if not is_set), default=0)
        if max(d_set, d_elt) <= 2:
            return self._count(self.decompose())
        if max(d_set, d_elt) > 3:
            # general phase: narrow, the node is counted; else branch on a
            # maximum-degree set or element
            vec = self.sweep(self.decompose())
            if vec is not None:
                return vec
            on_set = d_set > d_elt
            v = min(u for u in inst.active_vertices() if inst.is_set(u) == on_set
                    and inst.active_degree(u) == max(d_set, d_elt))
            self.stats.branchings += 1
            return self.branch(v, "general", depth)
        if self.frozen is None:
            self.frozen = sc_mu3_parts(inst, w)[1]
            if self.audit:  # entering the subcubic engine should not raise the measure
                m4, m3 = float(sc_mu4(inst, w)), float(sc_mu3(inst, w))
                self.audit.add("handover", False, {"mu": m3 <= m4 + 1e-9}, {"mu": (m4, (m3,))},
                               note=f"mu3={m3:.6f} mu4={m4:.6f}")
        return None

    def decompose(self) -> PathDecomposition:
        return nice_path_decomposition(self.inst.active_graph())

    def separate(self) -> PathDecomposition:
        inst, w, aud = self.inst, self.w, self.audit
        ag = inst.active_graph()
        decomp = nice_path_decomposition(ag)
        arg_old = sc_mu3_parts(inst, w)[1] if aud else None
        inst.sep = separate_balanced_by_measure(
            ag, lambda v: w.wright(ag.degree(v)), w.B, decomp)
        self.frozen = arg = sc_mu3_parts(inst, w)[1]
        if aud:  # the log term's amortization needs μ_r + μ_s to shrink by 1+ε
            aud.add("reseparate", False, {"shrink": arg * (1 + w.eps) <= arg_old or arg_old == 0},
                    {"arg": (float(arg_old), (float(arg),))},
                    note=f"arg {float(arg_old):.6f} -> {float(arg):.6f}")
        return decomp

    def sweep(self, decomp: PathDecomposition) -> CountVector | None:
        return None if decomp.width > PD_WIDTH_CAP else self._count(decomp)

    def _count(self, decomp: PathDecomposition) -> CountVector:
        self.stats.dp_calls += 1
        self.stats.leaves += 1
        if self.audit:
            self.audit.step("dp", 2, sc_snapshots(self.inst, self.w, self.frozen)(self.inst), [])
        return sc_dp(self.inst, decomp)

    def pivot(self) -> PivotAction:
        """A separator move, or a branch on the first separator element,
        else on the first separator set."""
        inst, w, sep, gap = self.inst, self.w, self.inst.sep, self.gap
        s_sorted = sorted(sep.sep)

        def side_nbrs(v: int, side: str) -> list[int]:
            return [u for u in inst.active_neighbors(v) if sep.side_of(u) == side]

        for s in s_sorted:
            if not side_nbrs(s, "L"):
                return PivotAction("drag-R", s)
            if not side_nbrs(s, "R"):
                return PivotAction("drag-L", s)
        deg2 = [s for s in s_sorted if inst.active_degree(s) == 2]
        if deg2:
            # every S vertex now has a neighbor on each side, so a degree-2
            # one has exactly one per side; near balance its chain in the
            # light side L goes to R with it, otherwise its chain in R to L
            return PivotAction("drag-path-R" if gap <= 2 * w.B else "drag-path-L", deg2[0])
        if gap > w.B:
            # S is all degree 3 now: two L-neighbours leave one R-neighbour r
            two_l = [(s, side_nbrs(s, "R")[0]) for s in s_sorted
                     if len(side_nbrs(s, "L")) == 2]
            for s, r in two_l:
                if inst.active_degree(r) == 3:
                    return PivotAction("rotate", s, r)
            for s, r in two_l:  # every r has degree 2 here
                if next(u for u in inst.active_neighbors(r) if u != s) in sep.sep:
                    return PivotAction("rotate-pair", s, r)
        elts = [s for s in s_sorted if not inst.is_set(s)]
        return PivotAction("branch", elts[0] if elts else s_sorted[0])

    def move(self, act: PivotAction) -> None:
        inst, aud = self.inst, self.audit
        if aud:
            snap = sc_snapshots(inst, self.w, self.frozen, ladder=True)
            before = snap(inst)
        adj = self.graph.neighbor_sets()
        apply_move(inst.sep, act, lambda u: adj[u] - inst.annotated)
        if aud:
            aud.step(act.kind, 2, before, [snap(inst)], falls=("progress",), cap=self.w.B)

    def stall(self) -> int:
        return _stall(self.inst)

    def branch(self, v, kind, depth) -> CountVector:
        """Two-way branch on v: a set is discarded or taken, an element made
        optional or forbidden (its sets deleted).  On the ladder, audited
        as "branch3", the children keep the separation and `frozen`; in the
        general phase and at a stall they start from the trivial one."""
        inst, w, aud = self.inst, self.w, self.audit
        kind = {"branch": "branch3", "general": "branch"}.get(kind, kind)
        frozen, ladder = (self.frozen, True) if kind == "branch3" else (None, False)
        is_set = inst.is_set(v)
        # (discard, take) for a set, (optional, forbidden) for an element
        first = _without(inst, {v}, reset_sep=not ladder)
        second = _without(inst, {v} | set(inst.incidence.neighbors(v)), reset_sep=not ladder)
        if aud:
            snap = sc_snapshots(inst, w, frozen, ladder)
            aud.step(f"{kind}-{'set' if is_set else 'elt'}", 2, snap(inst),
                     [snap(first), snap(second)],
                     falls={"branch": ("active",), "branch3": ("progress",)}.get(kind, ()),
                     cap=w.B if ladder else None, hard=kind != "stall",
                     note=f"{'s' if is_set else 'e'}={v}")
        a, b = (run(_Node(c, w, self.stats, aud, frozen), depth) for c in (first, second))
        return a + b.shift(1) if is_set else a - b


def _stall(inst: ScIncidence) -> int:
    """The vertex a stall branches on: the smallest active one of degree 3."""
    return min(u for u in inst.active_vertices() if inst.active_degree(u) == 3)
