"""Counting set covers per cardinality, and the dominating-set translation.

An instance is carried as its bipartite incidence graph: element vertices
on one side, set vertices on the other, with an edge when the element
belongs to the set.  The incidence graph is the whole instance: a vertex
that the engine resolves leaves it at once.  Each vertex that has
absorbed others carries a generating-function pair over the choices in
that folded material,

  set vertex:      (covers, idle)  split by whether its slot covers the
                   remaining neighbors              (base x, 1);
  element vertex:  (sat, pend)     split by whether it is already covered
                   inside the folded material       (base 0, 1),

and ``factor`` holds the counts of everything that has left with no
vertex to absorb it.

The engine's one terminal, ``sc_dp``, sweeps a path decomposition of the
incidence graph: ``policy.run`` walks a piece of max degree 2 in order
and width-tests the nice path decomposition of any other, asking
``narrow``.  A sweep of width w holds up to 2^(w+1) states, so a piece is
branched on when that exceeds the shared budget of 3^(PD_WIDTH_CAP+1)
states (``policy.Node.narrow``): above width 13 at the shipped cap.

Ownership: each node of the shared loop ``policy.run`` owns and consumes
its instance.  Folds, separator moves and the re-separation change it in
place; only branches and component splits build fresh children and
recurse, so an instance that reduces without branching needs no
recursion.  A branch child carries the parent's factor times what leaves
with the branch; a split's children start from one and the parent's
factor is counted once.  ``sc_count`` copies the caller's instance once.
The step order and the stall rule are the loop's, as in the other two
engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Callable

from .counts import CountVector, pack, unpack
from .graph import Graph, induced_subgraph
from .measures import Audit, sc_mu3, sc_mu3_parts, sc_mu4, sc_side_weights, sc_snapshots
from .policy import Node, PivotAction, Stats, run
from .separator import (
    PathDecomposition,
    Separation,
    nice_path_decomposition,
    separate_balanced_by_measure,
    trivial_separation,
    verify_separation,
)
from .weights import ScWeights

Pair = tuple[CountVector, CountVector]


@dataclass
class ScIncidence:
    incidence: Graph
    set_ids: set[int]
    sep: Separation = field(default_factory=lambda: Separation(set(), set(), set()))
    pairs: dict[int, Pair] = field(default_factory=dict)  # vertices that absorbed some
    factor: CountVector = field(default_factory=CountVector.one)

    def copy(self) -> "ScIncidence":
        return ScIncidence(self.incidence.copy(), set(self.set_ids), self.sep.copy(),
                           dict(self.pairs), self.factor)

    def element_ids(self) -> list[int]:
        return [v for v in self.incidence.vertices() if v not in self.set_ids]

    def is_set(self, v: int) -> bool:
        return v in self.set_ids

    def pair(self, v: int) -> Pair:
        """v's folded pair: (covers, idle) of a set, (sat, pend) of an
        element; (x, 1) and (0, 1) when v has absorbed nothing."""
        base = CountVector.unit(1) if v in self.set_ids else CountVector.zero()
        return self.pairs.get(v, (base, CountVector.one()))

    def folded(self) -> bool:
        """Whether material has been folded into the instance."""
        return bool(self.pairs) or self.factor != CountVector.one()

    def delete(self, v: int) -> None:
        self.incidence.delete_vertex(v)
        self.set_ids.discard(v)
        self.pairs.pop(v, None)
        self.sep.discard(v)

    def check(self) -> None:
        for v in self.incidence.vertices():
            sv = self.is_set(v)
            for u in self.incidence.neighbors(v):
                assert self.is_set(u) != sv, f"edge ({v},{u}) not across roles"
        assert self.pairs.keys() <= set(self.incidence.vertices())
        assert verify_separation(self.incidence, self.sep)


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
    if inst.folded():
        raise ValueError("cannot format an instance with folded material")
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


# -- folds, and the one sweep over a path decomposition ------------------------


def _fold_set_under(target: Pair, va: CountVector, vb: CountVector) -> Pair:
    """Absorb a set pair (covers=va, idle=vb) into the vertex it hangs on.

    The target's first component gains the cross term: a taken pendant
    set does the covering even when the target's own slot is idle (twin
    set) or unsatisfied (element).
    """
    ta, tb = target
    return ta.convolve(va + vb) + tb.convolve(va), tb.convolve(vb)


def _fold_elt_under(target: Pair, va: CountVector, vb: CountVector) -> Pair:
    """Absorb an element pair (sat=va, pend=vb) into its remaining set.

    The set's idle branch survives only when the element was already
    satisfied inside the folded material; taking the set frees both
    branches of the element."""
    ta, tb = target
    return ta.convolve(va + vb), tb.convolve(va)


def _fold(inst: ScIncidence, v: int, twin: int | None) -> None:
    """Fold v into `twin`, a same-role vertex with v's two neighbors, else
    into v's one neighbor, else into ``factor`` (a set with no neighbor is
    a free choice, an element with none must be satisfied already), and
    delete v."""
    va, vb = inst.pair(v)
    onto = twin if twin is not None else next(iter(inst.incidence.neighbors(v)), None)
    if onto is None:
        inst.factor = inst.factor.convolve(va + vb if inst.is_set(v) else va)
    elif inst.is_set(v):  # onto an element, or onto a twin: the slot covers iff one is taken
        inst.pairs[onto] = _fold_set_under(inst.pair(onto), va, vb)
    elif twin is None:
        inst.pairs[onto] = _fold_elt_under(inst.pair(onto), va, vb)
    else:  # twin elements need the same outside cover unless both are satisfied
        ta, tb = inst.pair(twin)
        sat = ta.convolve(va)
        inst.pairs[twin] = sat, (ta + tb).convolve(va + vb) - sat
    inst.delete(v)


def _times(p: int) -> Callable[[int], int] | None:
    """Multiplication by p, as a shift when p is a power of two (a packed
    x^k, or 1); None for p = 0."""
    if p & (p - 1) == 0:
        return (p.bit_length() - 1).__rlshift__ if p else None
    return p.__mul__


def sc_dp(inst: ScIncidence, decomp: PathDecomposition) -> CountVector:
    """Exact cover counts by one sweep over the steps of `decomp`, a path
    decomposition of the incidence graph, with up to 2^(width+1) states,
    times the instance's ``factor``.

    The sweep's state is the bitmask of "on" bag vertices: sets that
    cover and elements still pending.  A set enters with its (covers,
    idle) pair and an element with its (sat, pend) pair.  Every edge lies
    in some bag, so a covering neighbor meets each element in one;
    forgetting a pending element drops the state.

    Each state's counts are one packed int (``counts.pack``) with slots of
    W = bit_length(Π_v T_v) bits, T_v the total of v's two pair entries
    summed.  An introduce splits a state's mass over at most two states
    that together carry its total times T_v, and a forget only drops or
    merges states, so the mass of all states never exceeds Π_v T_v, and no
    coefficient does.  The sweep never subtracts, so no slot borrows or
    carries: an introduce is a multiply (a shift for an x^k entry), a
    forget an add.  Each vertex is introduced once, so its pair is packed
    once.
    """
    g = inst.incidence
    pairs = {v: inst.pair(v) for v in g.vertices()}
    mass = prod((a + b).total() for a, b in pairs.values())
    if not mass:  # some vertex has no choice at all
        return CountVector.zero()
    width = mass.bit_length()
    adj = g.neighbor_sets()
    bit: dict[int, int] = {}  # bag vertex -> its state bit
    states = {0: 1}  # state -> its packed counts; zero counts are left out
    for v, entering in decomp.steps:
        if not entering:
            b = bit.pop(v)
            new: dict[int, int] = {}
            for s, acc in states.items():
                if inst.is_set(v) or not s & b:  # a pending element stays uncovered
                    new[s & ~b] = new.get(s & ~b, 0) + acc
            states = new
            continue
        used = sum(bit.values())
        bit[v] = b = ~used & (used + 1)  # the lowest free bit
        nb = sum(bit.get(u, 0) for u in adj[v])
        new = {}
        if inst.is_set(v):  # taking it covers its pending neighbors
            covers, idle = (_times(pack(x, width)) for x in pairs[v])
            for s, acc in states.items():
                if idle:
                    new[s] = new.get(s, 0) + idle(acc)
                if covers:
                    t = (s & ~nb) | b
                    new[t] = new.get(t, 0) + covers(acc)
        else:  # no two states make the same state: nothing merges
            a, c = pairs[v]
            sat, pend, either = (_times(pack(x, width)) for x in (a, c, a + c))
            for s, acc in states.items():
                if s & nb:  # a covering set is already in the bag
                    new[s] = either(acc)
                else:
                    if sat:
                        new[s] = sat(acc)
                    if pend:
                        new[s | b] = pend(acc)
        states = new
    return inst.factor.convolve(unpack(states.get(0, 0), width))


# -- engine ------------------------------------------------------------------


def _component(inst: ScIncidence, comp: list[int]) -> ScIncidence:
    keep = set(comp)
    return ScIncidence(induced_subgraph(inst.incidence, keep), inst.set_ids & keep,
                       trivial_separation(keep),
                       {v: p for v, p in inst.pairs.items() if v in keep})


def _without(inst: ScIncidence, doomed: set[int], leaving: CountVector,
             reset_sep: bool) -> ScIncidence:
    """A copy without `doomed`, whose counts are `leaving`."""
    child = inst.copy()
    for v in doomed:
        child.delete(v)
    child.factor = inst.factor.convolve(leaving)
    if reset_sep:
        child.sep = trivial_separation(child.incidence.vertices())
    return child


def _find_duplicate(inst: ScIncidence) -> tuple[int, int] | None:
    """The smallest degree-2 vertex sharing both neighbors with a twin,
    and its smallest twin."""
    g = inst.incidence
    sig: dict[tuple[bool, frozenset[int]], list[int]] = {}
    for v in g.vertices():
        if g.degree(v) == 2:
            sig.setdefault((inst.is_set(v), frozenset(g.neighbors(v))), []).append(v)
    twins = [tuple(vs[:2]) for vs in sig.values() if len(vs) >= 2]
    return min(twins) if twins else None


def sc_count(inst: ScIncidence, weights: ScWeights | None = None,
             audit: Audit | None = None) -> tuple[CountVector, Stats]:
    """Count set covers of every cardinality (duplicate sets distinct),
    times the instance's ``factor``.

    Each vertex of degree <= 1, else each duplicate of degree 2, is folded
    into a neighbor, a twin or ``factor`` and deleted (counted as
    ``annotations``).  ``sc_dp`` counts a piece of maximum degree 2 along
    its walk order, and a node whose nice path decomposition of width w
    keeps within 2^(w+1) ≤ 3^(PD_WIDTH_CAP+1) states where it would branch
    in the general phase, where it re-separates, and where it branches on
    the ladder with no current decomposition.  Wider pieces branch on a
    maximum-degree set or element while some degree is >= 4 (the loop's
    general phase), then follow the separator ladder.  `weights` (the
    published table by default) set the separator balance, and the audit
    measures with them.

    Audit: hard steps must satisfy Σ_j 2^μ(I_j) ≤ 2^μ(I), with μ = μ₄
    while some degree is ≥ 4 and μ = μ₃ in the subcubic phase, and drop a
    potential by 1: the vertex count ("active") at folds and general
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
    incidence graph and moves ``inst.sep``, its separation.  Folds
    simplify it; ``general_pivot`` names the general phase's branch (a
    degree >= 4).  Under an audit, `frozen` is μ₃'s log argument since
    the last re-separation, and None until the handover to the subcubic
    phase; without one it stays None."""

    sep = property(lambda self: self.inst.sep)
    base = 2  # sweep states per bag vertex: on or off

    def __init__(self, inst: ScIncidence, weights: ScWeights, stats: Stats,
                 audit: Audit | None, frozen: Fraction | None = None):
        self.inst, self.graph, self.w, self.frozen = inst, inst.incidence, weights, frozen
        self.stats, self.audit = stats, audit

    def check(self) -> None:
        self.inst.check()

    def leaf(self) -> CountVector:
        if self.audit:
            self.audit.step("leaf", 2, sc_snapshots(self.inst, self.w)(self.inst), [])
        return self.inst.factor

    def split(self, parts, depth) -> CountVector:
        children = [_component(self.inst, comp) for comp in parts]
        if self.audit:
            snap = sc_snapshots(self.inst, self.w)
            self.audit.step("split", 2, snap(self.inst), [snap(c) for c in children],
                            hard=False, note=f"{len(parts)} parts")
        vec = self.inst.factor
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
        """Fold a degree <= 1 vertex away, else a duplicate degree-2 one."""
        inst, g, aud = self.inst, self.graph, self.audit
        low = [v for v in g.vertices() if g.degree(v) <= 1]
        v, twin = (min(low), None) if low else _find_duplicate(inst) or (None, None)
        if v is None:
            return False
        if aud:
            snap = sc_snapshots(inst, self.w, self.frozen)
            before = snap(inst)
        _fold(inst, v, twin)
        self.stats.annotations += 1
        if aud:
            aud.step("annotate", 2, before, [snap(inst)], falls=("active",),
                     note=f"v={v}" if low else f"dup v={v}")
        return True

    def general_pivot(self) -> int | None:
        """A smallest-id vertex of maximum degree, an element unless a set's
        degree is higher, while that degree is above 3."""
        adj, sets = self.graph.neighbor_sets(), self.inst.set_ids
        d_set = max((len(adj[v]) for v in sets), default=0)
        d_elt = max((len(nbrs) for v, nbrs in adj.items() if v not in sets), default=0)
        if max(d_set, d_elt) <= 3:
            return None
        return min(v for v, nbrs in adj.items() if (v in sets) == (d_set > d_elt)
                   and len(nbrs) == max(d_set, d_elt))

    def separate(self) -> PathDecomposition:
        inst, g, w, aud = self.inst, self.graph, self.w, self.audit
        if aud and self.frozen is None:  # entering the subcubic phase should not raise the measure
            m4, m3 = float(sc_mu4(inst, w)), float(sc_mu3(inst, w))
            aud.add("handover", False, {"mu": m3 <= m4 + 1e-9}, {"mu": (m4, (m3,))},
                    note=f"mu3={m3:.6f} mu4={m4:.6f}")
        decomp = nice_path_decomposition(g)
        arg_old = sc_mu3_parts(inst, w)[1] if aud else None
        inst.sep = separate_balanced_by_measure(
            g, lambda v: w.wright(g.degree(v)), w.B, decomp)
        if aud:  # the log term's amortization needs μ_r + μ_s to shrink by 1+ε
            self.frozen = arg = sc_mu3_parts(inst, w)[1]
            aud.add("reseparate", False, {"shrink": arg * (1 + w.eps) <= arg_old or arg_old == 0},
                    {"arg": (float(arg_old), (float(arg),))},
                    note=f"arg {float(arg_old):.6f} -> {float(arg):.6f}")
        return decomp

    def count(self, decomp: PathDecomposition) -> CountVector:
        if self.audit:
            self.audit.step("dp", 2, sc_snapshots(self.inst, self.w, self.frozen)(self.inst), [])
        return sc_dp(self.inst, decomp)

    def pivot(self) -> PivotAction:
        """A separator move, or a branch on the first separator element,
        else on the first separator set."""
        g, w, sep, gap = self.graph, self.w, self.inst.sep, self.gap
        s_sorted = sorted(sep.sep)

        def side_nbrs(v: int, side: str) -> list[int]:
            return [u for u in g.neighbors(v) if sep.side_of(u) == side]

        for s in s_sorted:
            if not side_nbrs(s, "L"):
                return PivotAction("drag-R", s)
            if not side_nbrs(s, "R"):
                return PivotAction("drag-L", s)
        deg2 = [s for s in s_sorted if g.degree(s) == 2]
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
                if g.degree(r) == 3:
                    return PivotAction("rotate", s, r)
            for s, r in two_l:  # every r has degree 2 here
                if next(u for u in g.neighbors(r) if u != s) in sep.sep:
                    return PivotAction("rotate-pair", s, r)
        elts = [s for s in s_sorted if not self.inst.is_set(s)]
        return PivotAction("branch", elts[0] if elts else s_sorted[0])

    def move(self, act: PivotAction) -> None:
        aud = self.audit
        if aud:
            snap = sc_snapshots(self.inst, self.w, self.frozen, ladder=True)
            before = snap(self.inst)
        super().move(act)
        if aud:
            aud.step(act.kind, 2, before, [snap(self.inst)], falls=("progress",), cap=self.w.B)

    def stall(self) -> int:
        return _stall(self.inst)

    def branch(self, v, kind, depth) -> CountVector:
        """Two-way branch on v: a set is discarded or taken, an element made
        optional or forbidden (its sets deleted).  Each child carries the
        node's factor times the counts of what leaves with it.  On the
        ladder, audited as "branch3", the children keep the separation and
        `frozen`; in the general phase and at a stall they start from the
        trivial one."""
        inst, w, aud = self.inst, self.w, self.audit
        kind = {"branch": "branch3", "general": "branch"}.get(kind, kind)
        frozen, ladder = (self.frozen, True) if kind == "branch3" else (None, False)
        is_set = inst.is_set(v)
        on, off = inst.pair(v)  # (covers, idle) of a set, (sat, pend) of an element
        nbrs = set(self.graph.neighbors(v))
        # a taken set's elements leave covered, a forbidden element's sets untaken
        gone = CountVector.one()
        for u in nbrs:
            u_on, u_off = inst.pair(u)
            gone = gone.convolve(u_on + u_off if is_set else u_off)
        # (discard, take) for a set, (optional, forbidden) for an element
        first = _without(inst, {v}, off if is_set else on + off, not ladder)
        second = _without(inst, {v} | nbrs, (on if is_set else off).convolve(gone), not ladder)
        if aud:
            snap = sc_snapshots(inst, w, frozen, ladder)
            aud.step(f"{kind}-{'set' if is_set else 'elt'}", 2, snap(inst),
                     [snap(first), snap(second)],
                     falls={"branch": ("active",), "branch3": ("progress",)}.get(kind, ()),
                     cap=w.B if ladder else None, hard=kind != "stall",
                     note=f"{'s' if is_set else 'e'}={v}")
        a, b = (run(_Node(c, w, self.stats, aud, frozen), depth) for c in (first, second))
        return a + b if is_set else a - b


def _stall(inst: ScIncidence) -> int:
    """The vertex a stall branches on: the smallest one of degree 3.  The
    benchmark's tracer counts its calls as ``setcover.stall``."""
    g = inst.incidence
    return min(u for u in g.vertices() if g.degree(u) == 3)
