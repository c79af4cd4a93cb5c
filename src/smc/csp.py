"""Max 2-CSP instances: score model, reductions 0-III, encodings, text I/O.

An instance carries a niladic score, a monadic score vector per vertex and
a dyadic score table per edge; the objective is the assignment maximizing
their sum.  Scores are exact Python integers (arbitrary precision, so
"overflow" cannot wrap).  Edge tables are stored row-major over
(color(u), color(v)) for the canonical orientation u < v.

Reductions 0/I/II remove a vertex y of degree 0/1/2 from their instance
in place and return a *fill*, which writes y's argmax colour into an
optimal assignment of the reduced instance; applied in reverse order,
the fills of a whole solve complete its witness.  Reduction III leaves
its instance as it is and returns one fresh child per colour of y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .graph import Graph, induced_subgraph

Edge = tuple[int, int]
Assignment = dict[int, int]
Fill = Callable[[Assignment], None]  # writes a removed vertex's colour in place


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass
class CspInstance:
    r: int
    graph: Graph
    s_nil: int
    s_v: dict[int, tuple[int, ...]]
    s_e: dict[Edge, tuple[int, ...]]

    def copy(self) -> "CspInstance":
        return CspInstance(
            self.r, self.graph.copy(), self.s_nil, dict(self.s_v), dict(self.s_e)
        )

    def check(self) -> None:
        assert self.r >= 2
        assert set(self.s_v) == set(self.graph.vertices())
        assert set(self.s_e) == set(self.graph.edges())
        for v, vec in self.s_v.items():
            assert len(vec) == self.r, f"s_v[{v}] wrong arity"
        for e, tab in self.s_e.items():
            assert len(tab) == self.r * self.r, f"s_e[{e}] wrong arity"

    def edge_rows(self, u: int, v: int) -> list[tuple[int, ...]]:
        """Edge u-v's table oriented from u: rows[cu][cv]."""
        r = self.r
        tab = self.s_e[edge_key(u, v)]
        if u < v:
            return [tab[c * r:(c + 1) * r] for c in range(r)]
        return [tab[c::r] for c in range(r)]

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass
class CspSolution:
    score: int
    assignment: Assignment


def zero_instance(r: int, g: Graph) -> CspInstance:
    zv = (0,) * r
    ze = (0,) * (r * r)
    return CspInstance(
        r, g.copy(), 0, {v: zv for v in g.vertices()}, {e: ze for e in g.edges()}
    )


def restrict(inst: CspInstance, vertices: Iterable[int]) -> CspInstance:
    """Sub-instance induced on a vertex set; the niladic score stays behind."""
    keep = set(vertices)
    g = induced_subgraph(inst.graph, keep)
    s_v = {v: inst.s_v[v] for v in keep}
    s_e = {e: t for e, t in inst.s_e.items() if e[0] in keep and e[1] in keep}
    return CspInstance(inst.r, g, 0, s_v, s_e)


def evaluate(inst: CspInstance, phi: Assignment) -> int:
    if set(phi) != set(inst.graph.vertices()):
        raise ValueError("assignment must be total on the vertex set")
    total = inst.s_nil
    for v, vec in inst.s_v.items():
        total += vec[phi[v]]
    for (u, v), tab in inst.s_e.items():
        total += tab[phi[u] * inst.r + phi[v]]
    return total


# -- reductions ----------------------------------------------------------------


def _check_degree(inst: CspInstance, y: int, name: str, want: int) -> None:
    if inst.graph.degree(y) != want:
        raise ValueError(f"{name} needs degree {want}, vertex {y} has {inst.graph.degree(y)}")


def reduce0(inst: CspInstance, y: int) -> Fill:
    """Delete isolated y, absorbing max_C s_y(C) into the niladic score."""
    _check_degree(inst, y, "reduce0", 0)
    vec = inst.s_v.pop(y)
    inst.graph.delete_vertex(y)
    top = max(vec)
    inst.s_nil += top
    c_y = vec.index(top)  # ties go to the smallest colour, here and below

    def fill(phi: Assignment) -> None:
        phi[y] = c_y

    return fill


def reduceI(inst: CspInstance, y: int) -> Fill:
    """Fold pendant y into its neighbor: s'_x(C) = s_x(C) + max_D (s_xy(C,D)+s_y(D))."""
    _check_degree(inst, y, "reduceI", 1)
    (x,) = inst.graph.neighbor_sets()[y]
    s_y = inst.s_v.pop(y)
    best_d: list[int] = []
    new_x = []
    for base, row in zip(inst.s_v[x], inst.edge_rows(x, y)):
        opts = [e + s for e, s in zip(row, s_y)]
        top = max(opts)
        new_x.append(base + top)
        best_d.append(opts.index(top))
    inst.graph.delete_vertex(y)
    del inst.s_e[edge_key(x, y)]
    inst.s_v[x] = tuple(new_x)

    def fill(phi: Assignment) -> None:
        phi[y] = best_d[phi[x]]

    return fill


def reduceII(inst: CspInstance, y: int) -> Fill:
    """Contract degree-2 y between x < z into a (possibly merged) xz table.

    s'_xz(C,D) = [existing s_xz(C,D)] + max_F (s_xy(C,F) + s_yz(F,D) + s_y(F)).
    A would-be parallel edge folds into the existing table, keeping the
    graph simple.
    """
    _check_degree(inst, y, "reduceII", 2)
    x, z = sorted(inst.graph.neighbor_sets()[y])
    s_y = inst.s_v.pop(y)
    # via[c][f] = s_xy(c,f) + s_y(f); zy[d][f] = s_yz(f,d)
    via = [[e + s for e, s in zip(row, s_y)] for row in inst.edge_rows(x, y)]
    zy = inst.edge_rows(z, y)
    merged = []
    best_f: list[list[int]] = []
    for via_c in via:
        row_f = []
        for zy_d in zy:
            opts = [a + b for a, b in zip(via_c, zy_d)]
            top = max(opts)
            merged.append(top)
            row_f.append(opts.index(top))
        best_f.append(row_f)
    old = inst.s_e.get((x, z))
    if old is not None:
        merged = [a + b for a, b in zip(merged, old)]
    inst.graph.delete_vertex(y)
    del inst.s_e[edge_key(x, y)]
    del inst.s_e[edge_key(y, z)]
    inst.graph.add_edge(x, z)
    inst.s_e[(x, z)] = tuple(merged)  # row-major over (color_x, color_z)

    def fill(phi: Assignment) -> None:
        phi[y] = best_f[phi[x]][phi[z]]

    return fill


def reduceIII(inst: CspInstance, y: int) -> list[CspInstance]:
    """Branch on y (degree >= 3): one subinstance per color C of y, in
    color order.

    The C-instance lives on G - y with s_nil += s_y(C) and, for every
    neighbor x, s'_x(D) = s_x(D) + s_xy(D,C).
    """
    if inst.graph.degree(y) < 3:
        raise ValueError(f"reduceIII needs degree >= 3, vertex {y} has {inst.graph.degree(y)}")
    rows = {x: inst.edge_rows(x, y) for x in inst.graph.neighbors(y)}
    out: list[CspInstance] = []
    for color in range(inst.r):
        child = inst.copy()
        child.graph.delete_vertex(y)
        del child.s_v[y]
        child.s_nil += inst.s_v[y][color]
        for x, rows_x in rows.items():
            del child.s_e[edge_key(x, y)]
            child.s_v[x] = tuple(s + row[color] for s, row in zip(child.s_v[x], rows_x))
        out.append(child)
    return out


# -- encodings -----------------------------------------------------------------


def encode_maxcut(g: Graph) -> CspInstance:
    """Max Cut as r=2 Max 2-CSP: each edge scores 1 iff endpoint colors differ."""
    inst = zero_instance(2, g)
    inst.s_e = {e: (0, 1, 1, 0) for e in inst.s_e}
    return inst


def encode_max2sat(n_vars: int, clauses: Iterable[tuple[int, ...]]) -> CspInstance:
    """Max 2-SAT as r=2 Max 2-CSP.

    Literals are DIMACS-style nonzero ints over variables 1..n_vars;
    variable i becomes vertex i-1; color 1 means true.  Width-2 clauses on
    distinct variables become edge tables; unit and same-variable clauses
    fold into monadic/niladic scores.
    """
    g = Graph(range(n_vars))
    s_v = {v: [0, 0] for v in range(n_vars)}
    s_e: dict[Edge, list[int]] = {}
    s_nil = 0
    for clause in clauses:
        lits = tuple(clause)
        if len(lits) > 2 or any(l == 0 or abs(l) > n_vars for l in lits):
            raise ValueError(f"bad clause {lits!r}")
        if len(lits) == 0:
            continue  # unsatisfiable clause: contributes nothing
        if len(lits) == 2 and abs(lits[0]) == abs(lits[1]):
            a, b = lits
            if a == b:
                lits = (a,)  # (x v x)
            else:
                s_nil += 1  # (x v -x) always satisfied
                continue
        if len(lits) == 1:
            lit = lits[0]
            v = abs(lit) - 1
            sat_color = 1 if lit > 0 else 0
            s_v[v][sat_color] += 1
            continue
        a, b = lits
        u, v = abs(a) - 1, abs(b) - 1
        if u > v:
            a, b = b, a
            u, v = v, u
        tab = s_e.setdefault((u, v), [0, 0, 0, 0])
        for cu in range(2):
            for cv in range(2):
                sat_u = (cu == 1) == (a > 0)
                sat_v = (cv == 1) == (b > 0)
                if sat_u or sat_v:
                    tab[cu * 2 + cv] += 1
    for (u, v) in s_e:
        g.add_edge(u, v)
    return CspInstance(
        2, g, s_nil, {v: tuple(vec) for v, vec in s_v.items()},
        {e: tuple(tab) for e, tab in s_e.items()},
    )


# -- text formats ----------------------------------------------------------------
#
# Instance format: "max2csp <r> <n> <m>", "nil <int>", n lines
# "v <id> <r ints>", m lines "e <u> <v> <r*r ints>"; '#' comments.


def parse_csp(text: str) -> CspInstance:
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows or rows[0][0] != "max2csp" or len(rows[0]) != 4:
        raise ValueError("expected header 'max2csp <r> <n> <m>'")
    r, n, m = (int(x) for x in rows[0][1:])
    if r < 2:
        raise ValueError(f"domain size {r} < 2")
    if n < 0 or m < 0:
        raise ValueError(f"negative size in header 'max2csp {r} {n} {m}'")
    inst = zero_instance(r, Graph(range(n)))
    seen_v: set[int] = set()
    for row in rows[1:]:
        kind = row[0]
        if kind == "nil" and len(row) == 2:
            inst.s_nil = int(row[1])
        elif kind == "v" and len(row) == 2 + r:
            v = int(row[1])
            if not 0 <= v < n or v in seen_v:
                raise ValueError(f"bad or repeated vertex line for id {v}")
            seen_v.add(v)
            inst.s_v[v] = tuple(int(x) for x in row[2:])
        elif kind == "e" and len(row) == 3 + r * r:
            u, v = int(row[1]), int(row[2])
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u},{v})")
            if edge_key(u, v) in inst.s_e:
                raise ValueError(f"duplicate edge ({u},{v})")
            inst.graph.add_edge(u, v)
            tab = tuple(int(x) for x in row[3:])
            if u > v:
                tab = tuple(tab[c * r + d] for d in range(r) for c in range(r))
            inst.s_e[edge_key(u, v)] = tab
        else:
            raise ValueError(f"bad line {' '.join(row)!r}")
    if len(inst.s_e) != m:
        raise ValueError(f"header promises {m} edges, found {len(inst.s_e)}")
    inst.check()
    return inst


def format_csp(inst: CspInstance) -> str:
    vs = inst.graph.vertices()
    if vs != list(range(len(vs))):
        raise ValueError("text format needs contiguous 0-based ids")
    lines = [f"max2csp {inst.r} {inst.n} {inst.graph.m}", f"nil {inst.s_nil}"]
    for v in vs:
        lines.append("v " + str(v) + " " + " ".join(map(str, inst.s_v[v])))
    for (u, v) in inst.graph.edges():
        lines.append(f"e {u} {v} " + " ".join(map(str, inst.s_e[(u, v)])))
    return "\n".join(lines) + "\n"


def parse_dimacs_2cnf(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """DIMACS CNF restricted to clause width <= 2."""
    n_vars = None
    clauses: list[tuple[int, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line {line!r}")
            if n_vars is not None:
                raise ValueError(f"second problem line {line!r}")
            n_vars, n_clauses = int(parts[2]), int(parts[3])
            if n_vars < 0 or n_clauses < 0:
                raise ValueError(f"negative size in problem line {line!r}")
            continue
        if n_vars is None:
            raise ValueError("clause before problem line")
        lits = [int(x) for x in line.split()]
        if not lits or lits[-1] != 0:
            raise ValueError(f"clause line must end with 0: {line!r}")
        clause = tuple(lits[:-1])
        if len(clause) > 2:
            raise ValueError(f"clause width {len(clause)} > 2")
        if any(l == 0 or abs(l) > n_vars for l in clause):
            raise ValueError(f"literal outside ±1..{n_vars} in clause line {line!r}")
        clauses.append(clause)
    if n_vars is None:
        raise ValueError("missing problem line")
    if len(clauses) != n_clauses:
        raise ValueError(f"problem line promises {n_clauses} clauses, found {len(clauses)}")
    return n_vars, clauses
