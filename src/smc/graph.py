"""Simple undirected graphs with stable integer vertex ids.

Vertex ids are arbitrary non-negative integers and are never re-indexed
by removals, so external bookkeeping (separations, labellings, score
tables) stays valid while a graph shrinks.  Everything is deterministic:
vertex lists, neighbor lists and component orders are sorted.

Graphs are value-like: operations either return a fresh graph or mutate
an explicitly owned copy; nothing shares adjacency sets behind the
caller's back.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Graph:
    """Mutable simple undirected graph: no loops, no parallel edges."""

    __slots__ = ("_adj",)

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        self._adj: dict[int, set[int]] = {}
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_vertex(u)
            self.add_vertex(v)
            self.add_edge(u, v)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph(range(n), [(i, i + 1) for i in range(n - 1)])

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    # -- mutation ------------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        self._adj.setdefault(v, set())

    def add_edge(self, u: int, v: int) -> None:
        """Insert edge u-v (idempotent).  Loops are rejected."""
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed in a simple graph")
        if u not in self._adj or v not in self._adj:
            raise KeyError(f"unknown endpoint in edge ({u},{v})")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        if v not in self._adj.get(u, ()):
            raise ValueError(f"edge ({u},{v}) not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def delete_vertex(self, v: int) -> None:
        """Remove v and its incident edges, in place."""
        if v not in self._adj:
            raise KeyError(f"unknown vertex id {v}")
        for u in self._adj[v]:
            self._adj[u].discard(v)
        del self._adj[v]

    # -- queries -------------------------------------------------------------

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def edges(self) -> list[tuple[int, int]]:
        return sorted(
            (min(u, v), max(u, v))
            for u in self._adj
            for v in self._adj[u]
            if u < v
        )

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._adj[v]))

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbor_sets(self) -> dict[int, set[int]]:
        """The live map v -> neighbour set, for read-only scans in hot
        loops; callers must not mutate it."""
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def degrees(self) -> dict[int, int]:
        return {v: len(nbrs) for v, nbrs in self._adj.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- pure graph operations ---------------------------------------------------


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph on vertex set s, keeping edges with both endpoints in s."""
    keep = set(s)
    unknown = keep - set(g._adj)
    if unknown:
        raise KeyError(f"unknown vertex ids {sorted(unknown)}")
    out = Graph()
    out._adj = {v: g._adj[v] & keep for v in keep}
    return out


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, each sorted, ordered by smallest id."""
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in g.vertices():
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                for u in g._adj[v]:
                    if u not in seen:
                        seen.add(u)
                        comp.append(u)
                        nxt.append(u)
            frontier = nxt
        comps.append(sorted(comp))
    return comps


# -- text format ---------------------------------------------------------------
#
# First line "graph <n> <m>", then m lines "<u> <v>" with 0-based ids;
# '#' starts a comment.  The writer emits the canonical form (sorted edge
# list, no comments), which round-trips bit-exactly.


def parse_graph(text: str) -> Graph:
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows or rows[0][0] != "graph" or len(rows[0]) != 3:
        raise ValueError("expected header 'graph <n> <m>'")
    n, m = int(rows[0][1]), int(rows[0][2])
    if n < 0 or m < 0:
        raise ValueError(f"negative size in header 'graph {n} {m}'")
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"bad edge line {' '.join(row)!r}")
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
    g = Graph(range(n))
    for row in rows[1:]:
        u, v = int(row[0]), int(row[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at {u} not allowed")
        if g.has_edge(u, v):
            raise ValueError(f"duplicate edge ({u},{v})")
        g.add_edge(u, v)
    return g


def format_graph(g: Graph) -> str:
    vs = g.vertices()
    if vs != list(range(len(vs))):
        raise ValueError("text format needs contiguous 0-based ids")
    lines = [f"graph {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"

