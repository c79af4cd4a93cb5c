"""Per-layer spans and counters for the benchmark's traced run.

``Tracer.install`` wraps layer entry functions by rebinding attributes of
the imported ``smc`` modules and classes -- in every ``smc`` module that
imported a function by name -- and ``Tracer.remove`` puts the originals
back.  Nothing under ``src/`` changes, and untraced runs execute the
program untouched.

Coarse functions get one span per call (group, start, end, parent), kept
in memory and written out at the end.  Hot per-node methods are only
counted.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from pathlib import Path

# (group, "module:function" or "module:Class.method"), one span per call
TIMED = (
    ("cli.parse", "smc.csp:parse_csp"),
    ("cli.parse", "smc.graph:parse_graph"),
    ("cli.parse", "smc.domset:parse_labeled_graph"),
    ("csp_solve.solve", "smc.csp_solve:solve"),
    ("csp_solve.brute", "smc.csp_solve:_brute_best"),
    ("csp.reduce", "smc.csp:reduce0"),
    ("csp.reduce", "smc.csp:reduceI"),
    ("csp.reduce", "smc.csp:reduceII"),
    ("csp.reduce", "smc.csp:reduceIII"),
    ("domset.count", "smc.domset:count_ds"),
    ("domset.terminal", "smc.domset:_terminal"),
    ("setcover.count", "smc.setcover:sc_count"),
    ("setcover.sc_dp", "smc.setcover:sc_dp"),
    ("separator.separate", "smc.separator:separate_cubic"),
    ("separator.separate", "smc.separator:separate_balanced_by_measure"),
    ("separator.pd", "smc.separator:nice_path_decomposition"),
    ("policy.case", "smc.policy:separator_case"),
    ("graph.copy", "smc.graph:Graph.copy"),
    ("graph.copy", "smc.graph:induced_subgraph"),
    ("counts.ops", "smc.counts:CountVector.__add__"),
    ("counts.ops", "smc.counts:CountVector.__sub__"),
    ("counts.ops", "smc.counts:CountVector.shift"),
    ("counts.ops", "smc.counts:CountVector.convolve"),
)
# (group, target), counted only
COUNTED = (
    ("csp.copy", "smc.csp:CspInstance.copy"),
    ("csp.copy", "smc.csp:restrict"),
    ("domset.branch3", "smc.domset:branch3"),
    ("setcover.copy", "smc.setcover:ScIncidence.copy"),
    ("setcover.stall", "smc.setcover:_stall"),
    ("graph.components", "smc.graph:connected_components"),
)
# span groups whose self time is a layer's own work
OWN = {
    "separator": ("separator.separate", "separator.pd"),
    "domset": ("domset.count", "domset.terminal"),
    "csp_solve": ("csp_solve.solve", "csp_solve.brute"),
    "setcover": ("setcover.count", "setcover.sc_dp"),
    "policy": ("policy.case",),
}


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children are disjoint sub-intervals of
    their parent and their durations add up to the part they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def _resolve(target: str):
    """[(owner, attribute)] bound to the target, and the original object."""
    modname, _, attr = target.partition(":")
    module = sys.modules[modname]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(module, cls_name)
        return [(owner, meth)], owner.__dict__[meth]
    original = getattr(module, attr)
    owners = [(mod, name)
              for modname2, mod in list(sys.modules.items())
              if modname2 == "smc" or modname2.startswith("smc.")
              for name, value in vars(mod).items() if value is original]
    return owners, original


class Tracer:
    def __init__(self) -> None:
        self.groups = sorted({group for group, _ in TIMED})
        self.group = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {group: 0 for group, _ in COUNTED}
        self.sep_frac: list[float] = []
        self.pd_width: list[int] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _timed(self, group: str, fn, observe=None):
        gid = self.groups.index(group)
        gids, parent, start, end, stack = self.group, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            gids.append(gid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def _counted(self, group: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_separation(self, args, sep) -> None:
        if args[0].n:
            self.sep_frac.append(len(sep.sep) / args[0].n)

    def _observe_decomposition(self, args, decomp) -> None:
        self.pd_width.append(decomp.width)

    def install(self) -> None:
        observers = {"separator.separate": self._observe_separation,
                     "separator.pd": self._observe_decomposition}
        wraps = [(target, lambda fn, g=group: self._timed(g, fn, observers.get(g)))
                 for group, target in TIMED]
        wraps += [(target, lambda fn, g=group: self._counted(g, fn))
                  for group, target in COUNTED]
        for target, make in wraps:
            owners, original = _resolve(target)
            wrapper = make(original)
            for owner, name in owners:
                self._undo.append((owner, name, original))
                setattr(owner, name, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def close_open_spans(self) -> None:
        """End spans an exception left open (e.g. a RecursionError that hit
        the wrapper itself) at the current time."""
        now = time.perf_counter()
        for sid in self._stack[1:]:
            self.end[sid] = now
        del self._stack[1:]

    # -- results ---------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,group,start_s,end_s\n")
            for i, (p, g, s, e) in enumerate(zip(self.parent, self.group, self.start, self.end)):
                fh.write(f"{i},{p},{self.groups[g]},{s:.9f},{e:.9f}\n")

    def layer_totals(self) -> tuple[dict, dict, dict]:
        """Per group: span count, inclusive seconds (spans nested in a span
        of the same group are not counted twice) and self seconds."""
        own_s = self_times(self.parent, self.start, self.end)
        calls = dict.fromkeys(self.groups, 0)
        incl = dict.fromkeys(self.groups, 0.0)
        own = dict.fromkeys(self.groups, 0.0)
        parent, gids = self.parent, self.group
        for i, gid in enumerate(gids):
            name = self.groups[gid]
            calls[name] += 1
            own[name] += own_s[i]
            p = parent[i]
            while p >= 0 and gids[p] != gid:
                p = parent[p]
            if p < 0:
                incl[name] += self.end[i] - self.start[i]
        return calls, incl, own


def _engine(argv: list[str]) -> str:
    if argv[0] in ("solve-csp", "maxcut", "max2sat"):
        return "csp_solve"
    return "domset" if "--subcubic" in argv else "setcover"


def layer_metrics(tracer: Tracer, runs: list[tuple[list[str], dict]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass.  ``runs`` holds the CLI argv
    and the ``--json`` stats of every instance that answered."""
    calls, incl, own = tracer.layer_totals()

    def own_of(layer: str) -> float:
        return sum(own[g] for g in OWN[layer])

    def mean(xs) -> float:
        return statistics.fmean(xs) if xs else 0.0

    by_engine: dict[str, list[dict]] = {"csp_solve": [], "domset": [], "setcover": []}
    for argv, stats in runs:
        by_engine[_engine(argv)].append(stats)
    sc_branchings = sum(s["branchings"] for s in by_engine["setcover"])
    c = tracer.counts
    return {
        "separator.pd_calls": (calls["separator.pd"], "count"),
        "separator.pd_s": (incl["separator.pd"], "s"),
        "separator.pd_width": (mean(tracer.pd_width), "vertices"),
        "separator.calls": (calls["separator.separate"], "count"),
        "separator.self_s": (own_of("separator"), "s"),
        "separator.recomputes": (sum(s["separator_recomputes"] for ss in by_engine.values()
                                     for s in ss), "count"),
        "separator.sep_frac": (mean(tracer.sep_frac), "frac"),
        "domset.terminal_calls": (calls["domset.terminal"], "count"),
        "domset.terminal_s": (incl["domset.terminal"], "s"),
        "domset.self_s": (own_of("domset"), "s"),
        "domset.branch3_calls": (c["domset.branch3"], "count"),
        "csp_solve.brute_calls": (calls["csp_solve.brute"], "count"),
        "csp_solve.brute_s": (incl["csp_solve.brute"], "s"),
        "csp_solve.self_s": (own_of("csp_solve"), "s"),
        "csp_solve.max_depth": (max((s["max_depth"] for s in by_engine["csp_solve"]),
                                    default=0), "count"),
        "csp.reduce_calls": (calls["csp.reduce"], "count"),
        "csp.reduce_s": (incl["csp.reduce"], "s"),
        "csp.copy_calls": (c["csp.copy"], "count"),
        "setcover.sc_dp_calls": (calls["setcover.sc_dp"], "count"),
        "setcover.sc_dp_s": (incl["setcover.sc_dp"], "s"),
        "setcover.self_s": (own_of("setcover"), "s"),
        "setcover.copy_calls": (c["setcover.copy"], "count"),
        "setcover.stall_frac": (c["setcover.stall"] / sc_branchings if sc_branchings else 0.0,
                                "frac"),
        "policy.calls": (calls["policy.case"], "count"),
        "policy.self_s": (own_of("policy"), "s"),
        "graph.copy_calls": (calls["graph.copy"], "count"),
        "graph.copy_s": (incl["graph.copy"], "s"),
        "graph.components_calls": (c["graph.components"], "count"),
        "counts.ops": (calls["counts.ops"], "count"),
        "counts.ops_s": (incl["counts.ops"], "s"),
        "cli.parse_s": (incl["cli.parse"], "s"),
    }
