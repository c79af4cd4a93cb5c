"""Reference answers computed without any of smc's solving code.

The benchmark checks every answer the program prints against a value from
one of these routes, made when the references are built (``make_refs.py``):

* dominating-set counts: a frontier transfer DP over a greedy vertex order,
  exact for any graph and fast on the small-width graphs the workloads use;
* Max Cut of a path or cycle: the closed form n-1 or n-(n mod 2);
* a Max Cut witness is re-scored by counting the edges it cuts.
"""

from __future__ import annotations

import hashlib
import json

IN, DOM, OPEN = 0, 1, 2  # frontier status: in the set / dominated / not yet


def _greedy_order(n: int, adj: list[set[int]]) -> list[int]:
    """Vertex order that keeps the frontier (placed vertices with an
    unplaced neighbour) small: take the candidate whose placement grows the
    frontier least, smallest id on ties; restart from the smallest unplaced
    id when a component is done."""
    placed = [False] * n
    unplaced_nbrs = [len(a) for a in adj]
    frontier: set[int] = set()
    order: list[int] = []
    for _ in range(n):
        cands = {u for f in frontier for u in adj[f] if not placed[u]}
        if not cands:
            cands = {min(v for v in range(n) if not placed[v])}

        def growth(v: int) -> int:
            closed = sum(1 for u in adj[v] if u in frontier and unplaced_nbrs[u] == 1)
            return (unplaced_nbrs[v] > 0) - closed

        v = min(cands, key=lambda c: (growth(c), c))
        placed[v] = True
        order.append(v)
        for u in adj[v]:
            unplaced_nbrs[u] -= 1
            if unplaced_nbrs[u] == 0:
                frontier.discard(u)
        if unplaced_nbrs[v] > 0:
            frontier.add(v)
    return order


def _add_poly(acc: dict, key: tuple, poly: list[int], shift: int) -> None:
    cur = acc.get(key)
    need = len(poly) + shift
    if cur is None:
        acc[key] = [0] * shift + poly
        return
    if len(cur) < need:
        cur.extend([0] * (need - len(cur)))
    for i, c in enumerate(poly):
        cur[i + shift] += c


def domset_counts(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Number of dominating sets of each size 0..n of a simple graph."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = _greedy_order(n, adj)
    pos = {v: i for i, v in enumerate(order)}
    # after step last[v] every member of N[v] is placed, so v's status is final
    last = [max([pos[v]] + [pos[u] for u in adj[v]]) for v in range(n)]
    frontier: list[int] = []
    table: dict[tuple, list[int]] = {(): [1]}
    for step, v in enumerate(order):
        keep = [w for w in frontier + [v] if last[w] > step]
        nxt: dict[tuple, list[int]] = {}
        for key, poly in table.items():
            for take in (True, False):
                status = dict(zip(frontier, key))
                if take:
                    for u in adj[v]:
                        if status.get(u) == OPEN:
                            status[u] = DOM
                    status[v] = IN
                else:
                    status[v] = DOM if any(status.get(u) == IN for u in adj[v]) else OPEN
                if any(status[w] == OPEN for w in status if last[w] <= step):
                    continue  # a vertex left the frontier undominated
                _add_poly(nxt, tuple(status[w] for w in keep), poly, int(take))
        frontier, table = keep, nxt
    out = [0] * (n + 1)
    for poly in table.values():
        for i, c in enumerate(poly):
            out[i] += c
    return out


def chain_edges(kind: str, n: int) -> list[tuple[int, int]]:
    """Edges of the path P_n or cycle C_n on 0..n-1."""
    edges = [(i, i + 1) for i in range(n - 1)]
    return edges + [(0, n - 1)] if kind == "cycle" else edges


def chain_maxcut(kind: str, n: int) -> int:
    return n - 1 if kind == "path" else n - n % 2


def cut_size(edges: list[tuple[int, int]], colors: list[int]) -> int:
    return sum(1 for u, v in edges if colors[u] != colors[v])


def digest(obj) -> str:
    """Short fingerprint of a JSON value (instance text or count vector)."""
    text = obj if isinstance(obj, str) else json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]
