"""The benchmark's workloads: seeded instances and their reference checks.

Every instance is a file the ``smc`` CLI reads, plus the CLI arguments a
user would pass.  A workload seed picks the instances; the program only
ever sees the files.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import chain_edges, chain_maxcut, cut_size, digest

REFERENCES = Path(__file__).with_name("references.json")

# (r, n, instances per run, pool).  A run draws its instances from the
# instance seeds 0..pool-1, all of which have stored references.
CSP_MIX = ((2, 44, 25, 160), (3, 28, 29, 160))
# (n, instances per run, pool) of random cubic graphs, set-cover route.
SC_MIX = ((16, 24, 128), (18, 11, 64))
# (subcommand, family, n): polynomial cases the cubic workloads barely touch.
CHAINS = (
    ("maxcut", "path", 400), ("maxcut", "cycle", 400),
    ("maxcut", "path", 600), ("maxcut", "cycle", 600),
    ("count-ds-subcubic", "path", 1200), ("count-ds-subcubic", "cycle", 1200),
    ("count-ds", "path", 36), ("count-ds", "cycle", 36),
)
ARGV = {
    "solve-csp": ["solve-csp", "--json"],
    "maxcut": ["maxcut", "--json"],
    "count-ds-subcubic": ["count-ds", "--subcubic", "--json"],
    "count-ds": ["count-ds", "--json"],
}
# Proven branching bases, printed beside the measured one.
PROVEN_BASE = {
    "csp-cubic": "Max 2-CSP on cubic graphs: r^(1/5), 1.1487 for r=2, 1.2457 for r=3",
    "sc-cubic": "#DS via #Set Cover: 1.5183 in general, 1.2457 on cubic graphs",
    "sparse-chains": "#DS via #Set Cover: 1.5183 in general, 1.2457 on cubic graphs",
}
WORKLOADS = tuple(PROVEN_BASE)
HELD_OUT_SEED = 9001


@dataclass
class Instance:
    name: str
    argv: list[str]
    text: str
    n: int
    score: int | None = None  # expected optimum, for solve-csp and maxcut
    rescore: Callable[[list[int]], int] | None = None  # witness -> its score
    counts: str | None = None  # digest of the expected count vector
    missing: str | None = None  # why no reference is available


def check(inst: Instance, payload: dict) -> str | None:
    """None when the ``--json`` payload matches the reference, else why not."""
    if inst.missing:
        return inst.missing
    if inst.counts is not None:
        counts = payload.get("counts")
        if not isinstance(counts, list) or len(counts) != inst.n + 1:
            return "count vector has the wrong length"
        if digest(counts) != inst.counts:
            return "counts differ from the reference"
        return None
    score, colors = payload.get("score"), payload.get("assignment")
    if score != inst.score:
        return f"score {score} differs from the reference {inst.score}"
    if not isinstance(colors, list) or len(colors) != inst.n:
        return "witness has the wrong length"
    if inst.rescore(colors) != score:
        return "witness does not reach the reported score"
    return None


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def pool_draw(rng: random.Random, entries: list[dict], per_run: int) -> list[int]:
    """Stratified draw: sort the pool by the engine's branchings, to the
    nearest power of two, then by its time, both stored with the
    references; cut it into per_run strata of (nearly) equal size and take
    one seed from each.

    Every pooled instance can be drawn, and every run gets the same mix of
    cheap and costly instances, so the seed moves the totals far less than
    a plain random sample of the same size would."""
    order = sorted(range(len(entries)), key=lambda s: (
        round(math.log2(entries[s]["branchings"] + 1)), entries[s]["cost"], s))
    cut = [len(order) * i // per_run for i in range(per_run + 1)]
    return sorted(rng.choice(order[a:b]) for a, b in zip(cut, cut[1:]))


def csp_key(r: int, n: int, s: int) -> str:
    return f"r{r}-n{n}-s{s}"


def cubic_key(n: int, s: int) -> str:
    return f"n{n}-s{s}"


def _pooled(name: str, argv: list[str], text: str, n: int, ref: dict, **expect) -> Instance:
    if ref["text"] != digest(text):
        return Instance(name, argv, text, n,
                        missing=f"{name} differs from the instance its reference was made for")
    return Instance(name, argv, text, n, **expect)


def _csp_cubic(rng: random.Random, refs: dict) -> list[Instance]:
    from smc.csp import evaluate, format_csp
    from smc.generators import csp_on_graph, gen_random_cubic

    out = []
    for r, n, per_run, pool in CSP_MIX:
        entries = [refs["csp"][csp_key(r, n, s)] for s in range(pool)]
        for s in pool_draw(rng, entries, per_run):
            inst = csp_on_graph(gen_random_cubic(n, s), r, s)
            name = csp_key(r, n, s)
            ref = entries[s]
            out.append(_pooled(
                name, ARGV["solve-csp"], format_csp(inst), n, ref, score=ref["score"],
                rescore=lambda colors, inst=inst: evaluate(inst, dict(enumerate(colors)))))
    return out


def _sc_cubic(rng: random.Random, refs: dict) -> list[Instance]:
    from smc.generators import gen_random_cubic
    from smc.graph import format_graph

    out = []
    for n, per_run, pool in SC_MIX:
        entries = [refs["ds"][cubic_key(n, s)] for s in range(pool)]
        for s in pool_draw(rng, entries, per_run):
            name = cubic_key(n, s)
            out.append(_pooled(name, ARGV["count-ds"], format_graph(gen_random_cubic(n, s)),
                               n, entries[s], counts=entries[s]["counts"]))
    return out


def _sparse_chains(rng: random.Random, refs: dict) -> list[Instance]:
    """Paths and cycles with vertex ids shuffled by the seed."""
    from smc.graph import Graph, format_graph

    out = []
    for cmd, kind, n in CHAINS:
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in chain_edges(kind, n)]
        name = f"{cmd}-{kind}-{n}"
        inst = Instance(name, ARGV[cmd], format_graph(Graph(range(n), edges)), n)
        if cmd == "maxcut":
            inst.score = chain_maxcut(kind, n)
            inst.rescore = lambda colors, edges=edges: cut_size(edges, colors)
        elif f"{kind}-{n}" in refs["chains"]:
            inst.counts = refs["chains"][f"{kind}-{n}"]
        else:
            inst.missing = f"no reference for {kind}-{n}"
        out.append(inst)
    return out


_GENERATORS = {"csp-cubic": _csp_cubic, "sc-cubic": _sc_cubic,
               "sparse-chains": _sparse_chains}


def generate(workload: str, seed: int, refs: dict) -> list[Instance]:
    """The workload's instances for this seed; the same seed, the same files."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), refs)
