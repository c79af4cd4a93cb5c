"""Shared hypothesis strategies, the merge step of the CountVector
sweeps kept as oracles for the packed ones, and the bags of a path
decomposition, replayed from its steps for the bag-based references."""

from hypothesis import strategies as st

from smc.counts import CountVector

from smc.csp import CspInstance, zero_instance
from smc.domset import C, N, U, LabeledGraph
from smc.graph import Graph
from smc.separator import trivial_separation
from smc.setcover import ScIncidence


@st.composite
def graphs(draw, max_n: int = 12, max_degree: int | None = None, min_n: int = 0):
    """Random simple graph on ids 0..n-1, optionally with a degree cap."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(range(n))
    for u, v in chosen:
        if max_degree is None or (
            g.degree(u) < max_degree and g.degree(v) < max_degree
        ):
            g.add_edge(u, v)
    return g


@st.composite
def labeled_subcubic(draw, max_n: int = 10, min_n: int = 1):
    """Random subcubic graph with a valid labeling (degree 3 ⇒ U)."""
    g = draw(graphs(max_n=max_n, min_n=min_n, max_degree=3))
    label = {
        v: U if g.degree(v) == 3 else draw(st.sampled_from([U, N, C]))
        for v in g.vertices()
    }
    return LabeledGraph(g, label)


@st.composite
def csp_instances(draw, max_n: int = 6, rs: tuple[int, ...] = (2, 3), lo: int = -5, hi: int = 5):
    """Random Max 2-CSP instance with integer scores in [lo, hi]."""
    g = draw(graphs(max_n=max_n))
    r = draw(st.sampled_from(rs))
    score = st.integers(min_value=lo, max_value=hi)
    inst = zero_instance(r, g)
    inst.s_nil = draw(score)
    for v in g.vertices():
        inst.s_v[v] = tuple(draw(score) for _ in range(r))
    for e in g.edges():
        inst.s_e[e] = tuple(draw(score) for _ in range(r * r))
    return inst


@st.composite
def sc_instances(draw, max_sets: int = 8, max_elems: int = 8):
    """Random set-cover incidence instance (empty sets and isolated
    elements are legal and exercise the degree-0 folds)."""
    ns = draw(st.integers(min_value=0, max_value=max_sets))
    ne = draw(st.integers(min_value=0, max_value=max_elems))
    inc = Graph(range(ne + ns))
    for j in range(ns):
        if ne:
            for e in draw(st.lists(st.integers(0, ne - 1), unique=True)):
                inc.add_edge(e, ne + j)
    return ScIncidence(
        inc, set(range(ne, ne + ns)), sep=trivial_separation(range(ne + ns))
    )


def add_into(states: dict[int, CountVector], key: int, vec: CountVector) -> None:
    """states[key] += vec; states that only ever hold zero are left out."""
    if vec.counts:
        states[key] = states[key] + vec if key in states else vec


def bags(decomp) -> list[frozenset[int]]:
    """The bag after each step of `decomp`, through its last introduce;
    the forgets after it only empty the last bag."""
    out, bag = [], frozenset()
    for v, entering in decomp.steps:
        bag = bag | {v} if entering else bag - {v}
        out.append(bag)
    ins = [i for i, (_, entering) in enumerate(decomp.steps) if entering]
    return out[:ins[-1] + 1] if ins else []
