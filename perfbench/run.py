"""Run one benchmark workload through the smc CLI and report its metrics.

    python3 perfbench/run.py --workload csp-cubic --seed 1 --seconds 30 --trace 0

Run from the repository root.  Instances go through ``smc.cli.main`` one at
a time, in this process, with the argv and ``--json`` output a user gets;
every answer is checked against a stored reference.  The report ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
each instance plain, traced, plain and with ``--audit-measure``, and
reports the per-layer metrics (see tracer.py).  ``--workload all`` runs
every workload in turn, each in its own process.

Times are wall times at the machine's nominal speed.  On a shared machine
the speed of the same code drifts by 10-30 % over tens of seconds, so each
measured time is multiplied by ``machine_speed()``, taken by a fixed probe
just before and after it.  The report also prints the raw wall time.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics
from workloads import PROVEN_BASE, WORKLOADS, Instance, check, generate, load_references

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 5  # set-up repeats; setup_s is their median
MIN_PASSES = 2
# Fastest of three _probe_work() runs on an idle Intel Xeon vCPU, Python 3.11.
PROBE_NOMINAL_S = 0.00053


def _probe_work() -> int:
    """A fixed piece of interpreter work like the solvers': build a sparse
    graph as a dict of sets and search it in sorted-neighbour order."""
    adj = {v: {(7 * v + 1) % 600, (13 * v + 5) % 600, (v + 1) % 600} for v in range(600)}
    seen, stack = {0}, [0]
    while stack:
        for w in sorted(adj[stack.pop()]):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def machine_speed() -> float:
    """The machine's speed now relative to nominal: PROBE_NOMINAL_S over
    the fastest of three runs of the probe work."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - t0)
    return PROBE_NOMINAL_S / best


@dataclass
class Outcome:
    inst: Instance
    seconds: float  # raw wall time of the smc.cli.main call
    failure: str | None = None
    wrong: bool = False  # the program answered, and the answer is not the reference
    stats: dict | None = None
    nominal_s: float = 0.0  # seconds at nominal machine speed


def run_instance(main, inst: Instance, path: Path, extra: tuple[str, ...] = ()) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*inst.argv, *extra, "--input", str(path)])
    except Exception as e:  # noqa: BLE001 -- a crash fails the instance, not the benchmark
        return Outcome(inst, perf_counter() - t0, f"crashed: {e!r}")
    seconds = perf_counter() - t0
    if code != 0:
        return Outcome(inst, seconds, f"exit {code}: {err.getvalue().strip()[:160]}")
    try:
        payload = json.loads(out.getvalue())
        failure = check(inst, payload)
    except Exception as e:  # noqa: BLE001 -- a malformed answer is a wrong answer
        return Outcome(inst, seconds, f"unreadable answer: {e!r}", wrong=True)
    return Outcome(inst, seconds, failure, failure is not None, payload.get("stats"))


def run_pass(main, instances, paths, extra=(), tracer: Tracer | None = None) -> list[Outcome]:
    outcomes = []
    before = machine_speed()
    for inst, path in zip(instances, paths):
        outcome = run_instance(main, inst, path, extra)
        if tracer is not None:
            tracer.close_open_spans()
        after = machine_speed()
        outcome.nominal_s = outcome.seconds * max(before, after)
        outcomes.append(outcome)
        before = after
    return outcomes


def setup(workload: str, seed: int):
    """Import smc afresh, make the seed's instances, write them, load
    references.  Returns the time taken at nominal speed."""
    t0 = perf_counter()
    for name in [m for m in sys.modules if m == "smc" or m.startswith("smc.")]:
        del sys.modules[name]
    cli = importlib.import_module("smc.cli")
    instances = generate(workload, seed, load_references())
    folder = WORK / workload
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, inst in enumerate(instances):
        path = folder / f"{i:03d}-{inst.name}.in"
        path.write_text(inst.text)
        paths.append(path)
    return (perf_counter() - t0) * machine_speed(), cli.main, instances, paths


def branching_base(outcomes: list[Outcome]) -> float:
    """Geometric mean of branchings^(1/n) over the instances that branch."""
    logs = [math.log(o.stats["branchings"]) / o.inst.n
            for o in outcomes if o.stats and o.stats["branchings"] > 0]
    return math.exp(statistics.fmean(logs)) if logs else 1.0


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[list[Outcome], dict, list[str]]:
    """Run the instances in as many passes as fit in ``seconds`` (at least
    MIN_PASSES) and time each instance by its fastest pass."""
    setups = [setup(workload, seed) for _ in range(SETUPS)]
    _, main, instances, paths = setups[-1]
    passes = [run_pass(main, instances, paths)]
    for _ in range(max(MIN_PASSES, int(seconds // sum(o.seconds for o in passes[0]))) - 1):
        passes.append(run_pass(main, instances, paths))
    first = passes[0]
    outcomes = [o for pass_outcomes in passes for o in pass_outcomes]
    fastest = [min(p[i].nominal_s for p in passes) for i in range(len(instances))]
    raw = sum(min(p[i].seconds for p in passes) for i in range(len(instances)))
    ok = sum(1 for o in outcomes if o.failure is None)
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "wall_s": (sum(fastest), "s"),
        "instance_s_p50": (statistics.median(fastest), "s"),
        "ok_frac": (ok / len(outcomes), "frac"),
        "branchings": (sum(o.stats["branchings"] for o in first if o.stats), "count"),
        "branching_base": (branching_base(first), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"{len(instances)} instances, {len(passes)} passes; each instance counts its fastest "
        f"pass; instance_s_p50 is the median over the {len(instances)} instances",
        f"wall_s is {raw:.3f} s of raw wall time, {sum(fastest):.3f} s at nominal speed",
        f"ok_frac: {ok} of {len(outcomes)} runs exit 0 with the reference answer",
        f"proven branching base: {PROVEN_BASE[workload]}",
    ]
    return outcomes, metrics, notes


def traced(workload: str, seed: int) -> tuple[list[Outcome], dict, list[str]]:
    """Each instance runs plain, traced, plain again and with
    ``--audit-measure``, one right after the other, so the totals see the
    same machine; the faster plain run counts (the first one also warms up)."""
    _, main, instances, paths = setup(workload, seed)
    tracer = Tracer()
    plain, traced_outcomes, audited = [], [], []
    plain_s = 0.0
    for inst, path in zip(instances, paths):
        first = run_pass(main, [inst], [path])
        tracer.install()
        try:
            traced_outcomes += run_pass(main, [inst], [path], tracer=tracer)
        finally:
            tracer.remove()
        again = run_pass(main, [inst], [path])
        audited += run_pass(main, [inst], [path], extra=("--audit-measure",))
        plain += first + again
        plain_s += min(first[0].nominal_s, again[0].nominal_s)
    traced_s, audit_s = (sum(o.nominal_s for o in p) for p in (traced_outcomes, audited))
    spans = WORK / workload / "spans.csv"
    tracer.write_spans(spans)
    metrics = layer_metrics(tracer, [(o.inst.argv, o.stats) for o in traced_outcomes if o.stats])
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "frac")
    metrics["audit.overhead_frac"] = (audit_s / plain_s - 1, "frac")
    notes = [f"{len(instances)} instances at nominal speed: plain {plain_s:.3f} s, traced "
             f"{traced_s:.3f} s, --audit-measure {audit_s:.3f} s; span times are raw; "
             f"{len(tracer.start)} spans in {spans}"]
    return plain + traced_outcomes + audited, metrics, notes


def run_all(args) -> int:
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smc" / "cli.py").is_file():
        print(f"error: no smc package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if args.trace:
        outcomes, metrics, notes = traced(args.workload, args.seed)
    else:
        outcomes, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:>16.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    failures = [o for o in outcomes if o.failure]
    for o in failures:
        print(f"  failed {o.inst.name}: {o.failure}")
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
