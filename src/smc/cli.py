"""Command-line front end: solve, count, generate, separate, audit, trace.

Results go to stdout, statistics/audit diagnostics go to stderr (as
``stat,<name>,<value>`` CSV-ready lines), so pipelines compose.  Exit
codes: 0 success, 1 solver or guard error, 2 input/argument parse error.
Every invocation is deterministic; ``gen`` alone takes a ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from smc.audit import check_csp, check_sc, exponent_csp, exponent_sc, format_report
from smc.csp import (
    encode_max2sat,
    encode_maxcut,
    format_csp,
    parse_csp,
    parse_dimacs_2cnf,
)
from smc.csp_solve import solve
from smc.domset import U, count_ds, parse_labeled_graph
from smc.generators import (
    expected_branchings,
    gen_g3,
    gen_g4,
    gen_g5,
    gen_random_csp,
    gen_random_cubic,
    trace_lower_bound,
)
from smc.graph import format_graph, parse_graph
from smc.measures import Audit
from smc.oracles import brute_domset, brute_max2csp, brute_setcover
from smc.separator import nice_path_decomposition, separate_cubic
from smc.setcover import ds_to_sc, parse_sc, sc_count
from smc.weights import CspWeights, ScWeights, parse_csp_weights, parse_sc_weights

class InputError(Exception):
    """Unreadable or unparsable input (exit code 2)."""


def _diag(line: str) -> None:
    print(line, file=sys.stderr)


def _read_text(args) -> str:
    if args.input in (None, "-"):
        return sys.stdin.read()
    try:
        with open(args.input) as fh:
            return fh.read()
    except OSError as e:
        raise InputError(str(e)) from e


def _parse_input(args, parser_fn):
    text = _read_text(args)
    try:
        return parser_fn(text)
    except ValueError as e:
        raise InputError(str(e)) from e


def _load_weights(args, kind: str):
    if kind == "csp":
        default, parser_fn = CspWeights.published(), parse_csp_weights
    else:
        default, parser_fn = ScWeights.published(), parse_sc_weights
    if args.weights is None:
        return default
    try:
        with open(args.weights) as fh:
            return parser_fn(fh.read())
    except (OSError, ValueError) as e:
        raise InputError(f"weights: {e}") from e


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _print_result(args, result: dict, stats=None) -> None:
    """One JSON object under --json, with the run's stats when given; else
    one line per entry, its name and then its value or values."""
    if args.json_out:
        _emit_json(result if stats is None else {**result, "stats": asdict(stats)})
        return
    for key, val in result.items():
        print(f"{key} " + (" ".join(map(str, val)) if isinstance(val, list) else str(val)))


def _report(args, result: dict, stats, audit: Audit | None) -> int:
    """Print a solver's result, then its stat lines (--stats) and its audit
    summary (--audit-measure) on stderr."""
    _print_result(args, result, stats)
    if args.stats:
        for key, val in asdict(stats).items():
            _diag(f"stat,{key},{val}")
    if audit is not None:
        _diag(f"stat,audit_entries,{len(audit.entries)}")
        _diag(f"stat,audit_violations,{len(audit.violations)}")
        for entry in audit.violations:
            _diag(f"audit-violation,{entry}")
    return 0


# -- solving -------------------------------------------------------------------


def _run_csp(args, inst) -> int:
    if args.weights is not None and not args.audit:
        raise InputError("--weights needs --audit-measure")
    if args.audit and args.policy == "local":
        raise InputError("--audit-measure needs the separator policy")
    audit = Audit() if args.audit else None
    sol, stats = solve(inst, policy=args.policy or "separator", audit=audit,
                       weights=_load_weights(args, "csp"))
    order = inst.graph.vertices()
    return _report(args, {"score": sol.score,
                          "assignment": [sol.assignment[v] for v in order]}, stats, audit)


def cmd_solve_csp(args) -> int:
    return _run_csp(args, _parse_input(args, parse_csp))


def cmd_maxcut(args) -> int:
    return _run_csp(args, encode_maxcut(_parse_input(args, parse_graph)))


def cmd_max2sat(args) -> int:
    n_vars, clauses = _parse_input(args, parse_dimacs_2cnf)
    return _run_csp(args, encode_max2sat(n_vars, clauses))


# -- counting ------------------------------------------------------------------


def cmd_count_ds(args) -> int:
    if args.policy is not None and not args.subcubic:
        raise InputError("--policy needs --subcubic")
    if args.weights is not None and args.subcubic:
        raise InputError("--weights does not apply to --subcubic")
    lg = _parse_input(args, parse_labeled_graph)
    audit = Audit() if args.audit else None
    if args.subcubic:
        if lg.graph.max_degree() > 3:
            raise InputError(f"--subcubic needs max degree <= 3, got {lg.graph.max_degree()}")
        vec, stats = count_ds(lg, policy=args.policy or "separator", audit=audit)
    elif any(lab != U for lab in lg.label.values()):
        raise InputError("labels other than U need --subcubic")
    else:
        vec, stats = sc_count(ds_to_sc(lg.graph), _load_weights(args, "sc"), audit)
    return _report(args, {"counts": vec.to_list(lg.graph.n)}, stats, audit)


def cmd_count_sc(args) -> int:
    inst = _parse_input(args, parse_sc)
    audit = Audit() if args.audit else None
    vec, stats = sc_count(inst, _load_weights(args, "sc"), audit)
    return _report(args, {"counts": vec.to_list(len(inst.set_ids))}, stats, audit)


# -- separations ---------------------------------------------------------------


def cmd_separate(args) -> int:
    g = _parse_input(args, parse_graph)
    if g.max_degree() > 6:
        raise InputError(f"separate needs max degree <= 6, got {g.max_degree()}")
    sep = separate_cubic(g, nice_path_decomposition(g))
    sides = {name: sorted(getattr(sep, name)) for name in ("left", "sep", "right")}
    if args.json_out:
        _emit_json(sides)
    else:
        for name in ("left", "sep", "right"):
            print(name + ("" if not sides[name] else
                          " " + " ".join(map(str, sides[name]))))
    if args.stats:
        for name in ("left", "sep", "right"):
            _diag(f"stat,{name}_size,{len(sides[name])}")
    return 0


# -- generation ----------------------------------------------------------------


def _check_family_flags(args, fam: str) -> None:
    """InputError for a generator flag that `fam` does not read (all read --n)."""
    reads = {"g4": ("n3", "n4"), "cubic": ("seed",), "csp": ("m", "r", "seed")}.get(fam, ())
    for name in ("n3", "n4", "m", "r", "seed"):
        if getattr(args, name, None) is not None and name not in reads:
            raise InputError(f"--{name} does not apply to the family {fam}")


def cmd_gen(args) -> int:
    fam = args.family
    _check_family_flags(args, fam)
    try:
        if fam == "g3":
            out = format_graph(gen_g3(_require(args.n, "--n")))
        elif fam == "g4":
            n3, n4 = _g4_params(args)
            out = format_graph(gen_g4(n3, n4))
        elif fam == "g5":
            out = format_graph(gen_g5(_require(args.n, "--n")))
        elif fam == "cubic":
            out = format_graph(gen_random_cubic(_require(args.n, "--n"), args.seed or 0))
        else:  # csp
            n = _require(args.n, "--n")
            m = _require(args.m, "--m")
            out = format_csp(gen_random_csp(n, m, 2 if args.r is None else args.r,
                                            args.seed or 0))
    except ValueError as e:
        raise InputError(str(e)) from e
    sys.stdout.write(out)
    return 0


def _require(value, flag: str):
    if value is None:
        raise InputError(f"{flag} is required here")
    return value


def _g4_params(args) -> tuple[int, int]:
    if args.n3 is not None or args.n4 is not None:
        return _require(args.n3, "--n3"), _require(args.n4, "--n4")
    n = _require(args.n, "--n (equal split) or --n3/--n4")
    if n % 8:
        raise InputError("--n for g4 means the equal split (n/2, n/2); need n divisible by 8")
    return n // 2, n // 2


def cmd_trace_lb(args) -> int:
    fam = args.family
    _check_family_flags(args, fam)
    try:
        if fam == "g3":
            params: tuple[int, ...] = (_require(args.n, "--n"),)
            g = gen_g3(*params)
        elif fam == "g4":
            params = _g4_params(args)
            g = gen_g4(*params)
        else:
            params = (_require(args.n, "--n"),)
            g = gen_g5(*params)
    except ValueError as e:
        raise InputError(str(e)) from e
    trace = trace_lower_bound(g, fam)
    expected = expected_branchings(fam, params)
    match = trace.reduction3_count == expected
    for t in trace.guard_failures:
        step = trace.steps[t]
        _diag(f"guard-failure,step={t},pivot={step.pivot},degree={step.degree}")
    if args.json_out:
        _emit_json(
            {
                "branchings": trace.reduction3_count,
                "expected": expected,
                "match": match,
                "guard_failures": trace.guard_failures,
            }
        )
    else:
        print(
            f"branchings={trace.reduction3_count} expected={expected} "
            f"match={'true' if match else 'false'}"
        )
    if args.stats:
        for t, step in enumerate(trace.steps):
            _diag(f"stat,step{t},pivot={step.pivot} degree={step.degree} "
                  f"order={step.order_after}")
    return 0


# -- auditing ------------------------------------------------------------------


def cmd_audit_measure(args) -> int:
    if args.system == "csp":
        w = _load_weights(args, "csp")
        report = check_csp(w)
        numbers = exponent_csp(w) if report.feasible else None
    else:
        w = _load_weights(args, "sc")
        report = check_sc(w)
        numbers = exponent_sc(w) if report.feasible else None
    sys.stderr.write(format_report(report))
    if numbers is None:
        if args.json_out:
            _emit_json({"feasible": False})
        else:
            print("feasible=false")
        return 0
    exponent, base = numbers
    if args.json_out:
        _emit_json(
            {"feasible": True, "exponent": float(exponent), "base": round(base, 4)}
        )
    else:
        print(f"feasible=true exponent={float(exponent):.5f} base={base:.4f}")
    return 0


# -- oracles -------------------------------------------------------------------


def cmd_oracle(args) -> int:
    if args.problem == "csp":
        inst = _parse_input(args, parse_csp)
        sol = brute_max2csp(inst)
        _print_result(args, {"score": sol.score,
                             "assignment": [sol.assignment[v] for v in inst.graph.vertices()]})
    elif args.problem == "ds":
        lg = _parse_input(args, parse_labeled_graph)
        _print_result(args, {"counts": brute_domset(lg).to_list(lg.graph.n)})
    else:
        inst = _parse_input(args, parse_sc)
        _print_result(args, {"counts": brute_setcover(inst).to_list(len(inst.set_ids))})
    return 0


# -- wiring --------------------------------------------------------------------


_HANDLERS = {
    "solve-csp": cmd_solve_csp,
    "maxcut": cmd_maxcut,
    "max2sat": cmd_max2sat,
    "count-ds": cmd_count_ds,
    "count-sc": cmd_count_sc,
    "separate": cmd_separate,
    "gen": cmd_gen,
    "trace-lb": cmd_trace_lb,
    "audit-measure": cmd_audit_measure,
    "oracle": cmd_oracle,
}


_FLAGS = {
    "--input": dict(help="input file (default: stdin)"),
    "--policy": dict(choices=("separator", "local"),
                     help="branching policy (default: separator)"),
    "--weights": dict(help="weights file overriding the published table"),
    "--audit-measure": dict(dest="audit", action="store_true",
                            help="run the per-step measure audit (report on stderr)"),
    "--stats": dict(action="store_true", help="emit stat,<name>,<value> lines on stderr"),
    "--json": dict(dest="json_out", action="store_true",
                   help="emit one JSON object on stdout"),
}


def _add_flags(sub: argparse.ArgumentParser, *flags: str) -> None:
    """Give a subcommand exactly the shared flags its handler reads."""
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="smc",
        description="Exact Max 2-CSP / #Dominating Set / #Set Cover solvers "
        "with separator-driven branching, measure audits, and "
        "adversarial instance generators.",
    )
    subs = top.add_subparsers(dest="subcommand", required=True)

    for name, helptext in (
        ("solve-csp", "exact optimum of a Max 2-CSP instance"),
        ("maxcut", "Max Cut of a graph via the CSP encoding"),
        ("max2sat", "Max 2-SAT (DIMACS 2-CNF) via the CSP encoding"),
    ):
        _add_flags(subs.add_parser(name, help=helptext), *_FLAGS)

    ds = subs.add_parser("count-ds", help="dominating-set counts by size")
    ds.add_argument("--subcubic", action="store_true",
                    help="use the native labeled subcubic engine "
                    "(default: set-cover translation)")
    _add_flags(ds, *_FLAGS)

    _add_flags(subs.add_parser("count-sc", help="set-cover counts by size"),
               "--input", "--weights", "--audit-measure", "--stats", "--json")
    _add_flags(subs.add_parser("separate", help="balanced separation of a graph"),
               "--input", "--stats", "--json")

    gen = subs.add_parser("gen", help="emit a family or random instance")
    gen.add_argument("family", choices=("g3", "g4", "g5", "cubic", "csp"))
    gen.add_argument("--n", type=int)
    gen.add_argument("--n3", type=int)
    gen.add_argument("--n4", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--r", type=int, help="colours (csp; default 2)")
    gen.add_argument("--seed", type=int, help="64-bit seed (default 0)")

    tr = subs.add_parser("trace-lb", help="adversarial trace on a family")
    tr.add_argument("--family", choices=("g3", "g4", "g5"), required=True)
    tr.add_argument("--n", type=int)
    tr.add_argument("--n3", type=int)
    tr.add_argument("--n4", type=int)
    _add_flags(tr, "--stats", "--json")

    am = subs.add_parser("audit-measure", help="weight-system feasibility report")
    am.add_argument("--system", choices=("csp", "sc"), required=True)
    _add_flags(am, "--weights", "--json")

    orc = subs.add_parser("oracle", help="brute-force reference solver")
    orc.add_argument("problem", choices=("csp", "ds", "sc"))
    _add_flags(orc, "--input", "--json")
    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _HANDLERS[args.subcommand](args)
    except InputError as e:
        _diag(f"error: {e}")
        return 2
    except (ValueError, AssertionError, OverflowError, RecursionError) as e:
        _diag(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
