"""Build references.json, the expected answer of every pooled instance.

Run from the repository root, once, when the pools in workloads.py change:

    PYTHONPATH=src python3 perfbench/make_refs.py

An answer is stored only when independent routes agree on it:

* Max 2-CSP: ``--policy local`` (no separator machinery) against the
  default separator policy, and the witness re-scored by ``evaluate``;
* dominating-set counts of cubic graphs: the frontier DP in reference.py,
  the subcubic #DS engine, the #Set Cover engine and, for n <= 20,
  ``smc.oracles.brute_domset``;
* dominating-set counts of paths and cycles: the frontier DP, the
  subcubic #DS engine and, for n <= 50, the #Set Cover engine.

Any disagreement stops the build; nothing is written.  Each pooled entry
also records the engine's ``branchings`` and ``cost``, its time at nominal
machine speed (the fastest of three runs); workloads.py uses the two only
to sort the pool into strata.
"""

from __future__ import annotations

import json
import sys
import time

from reference import chain_edges, digest, domset_counts
from run import machine_speed
from workloads import CHAINS, CSP_MIX, REFERENCES, SC_MIX, csp_key, cubic_key


def _agree(name: str, answers: dict) -> None:
    if len({json.dumps(v) for v in answers.values()}) != 1:
        raise SystemExit(f"{name}: routes disagree: {answers}")


def _timed(fn, *args):
    """(result, seconds at nominal machine speed) of the fastest of three calls."""
    best = None
    for _ in range(3):
        speed = machine_speed()
        t0 = time.perf_counter()
        out = fn(*args)
        dt = (time.perf_counter() - t0) * max(speed, machine_speed())
        best = dt if best is None else min(best, dt)
    return out, round(best, 4)


def _ds_routes(g, n: int) -> tuple[dict, tuple[int, float] | None]:
    from smc.domset import LabeledGraph, count_ds
    from smc.oracles import brute_domset
    from smc.setcover import ds_to_sc, sc_count

    answers = {
        "frontier-dp": domset_counts(n, g.edges()),
        "count_ds": count_ds(LabeledGraph.all_u(g))[0].to_list(n),
    }
    effort = None
    if n <= 50:
        (vec, stats), cost = _timed(sc_count, ds_to_sc(g))
        answers["sc_count"] = vec.to_list(n)
        effort = stats.branchings, cost
    if n <= 20:
        answers["brute_domset"] = brute_domset(LabeledGraph.all_u(g)).to_list(n)
    return answers, effort


def main() -> int:
    from smc.csp import evaluate, format_csp
    from smc.csp_solve import solve
    from smc.generators import csp_on_graph, gen_random_cubic
    from smc.graph import Graph, format_graph

    refs: dict = {"csp": {}, "ds": {}, "chains": {}}
    t0 = time.perf_counter()
    for r, n, _, pool in CSP_MIX:
        for s in range(pool):
            inst = csp_on_graph(gen_random_cubic(n, s), r, s)
            name = csp_key(r, n, s)
            local = solve(inst, policy="local")[0]
            (sep, stats), cost = _timed(solve, inst)
            _agree(name, {"local": local.score, "separator": sep.score,
                          "evaluate": evaluate(inst, local.assignment)})
            refs["csp"][name] = {"text": digest(format_csp(inst)), "score": local.score,
                                 "branchings": stats.branchings, "cost": cost}
        print(f"csp r={r} n={n}: {pool} instances, {time.perf_counter() - t0:.0f} s", flush=True)
    for n, _, pool in SC_MIX:
        for s in range(pool):
            g = gen_random_cubic(n, s)
            name = cubic_key(n, s)
            answers, (branchings, cost) = _ds_routes(g, n)
            _agree(name, answers)
            refs["ds"][name] = {"text": digest(format_graph(g)),
                                "counts": digest(answers["frontier-dp"]),
                                "branchings": branchings, "cost": cost}
        print(f"cubic n={n}: {pool} graphs, {time.perf_counter() - t0:.0f} s", flush=True)
    for cmd, kind, n in CHAINS:
        if cmd == "maxcut" or f"{kind}-{n}" in refs["chains"]:
            continue
        answers, _ = _ds_routes(Graph(range(n), chain_edges(kind, n)), n)
        _agree(f"{kind}-{n}", answers)
        refs["chains"][f"{kind}-{n}"] = digest(answers["frontier-dp"])
        print(f"{kind} n={n}: {time.perf_counter() - t0:.0f} s", flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
