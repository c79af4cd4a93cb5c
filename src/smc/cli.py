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
from dataclasses import asdict, dataclass

from smc.audit import check_csp, check_sc, exponent_csp, exponent_sc, format_report
from smc.csp import (
    encode_max2sat,
    encode_maxcut,
    format_csp,
    parse_csp,
    parse_dimacs_2cnf,
)
from smc.csp_solve import CspAudit, solve
from smc.domset import DsAudit, count_ds, parse_labeled_graph
from smc.generators import (
    csp_on_graph,
    expected_branchings,
    gen_g3,
    gen_g4,
    gen_g5,
    gen_random_csp,
    gen_random_cubic,
    trace_lower_bound,
)
from smc.graph import Graph, format_graph, parse_graph
from smc.oracles import brute_domset, brute_max2csp, brute_setcover
from smc.separator import nice_path_decomposition, separate_cubic
from smc.setcover import ScAudit, ds_to_sc, parse_sc, sc_count
from smc.weights import CspWeights, ScWeights, parse_csp_weights, parse_sc_weights

U_LABEL = "U"


class InputError(Exception):
    """Unreadable or unparsable input (exit code 2)."""


@dataclass
class RunConfig:
    subcommand: str
    input: str | None = None  # path; None or "-" reads stdin
    audit: bool = False
    stats: bool = False
    policy: str = "separator"
    weights: str | None = None
    json_out: bool = False


def _diag(line: str) -> None:
    print(line, file=sys.stderr)


def _read_text(cfg: RunConfig) -> str:
    if cfg.input in (None, "-"):
        return sys.stdin.read()
    try:
        with open(cfg.input) as fh:
            return fh.read()
    except OSError as e:
        raise InputError(str(e)) from e


def _parse_input(cfg: RunConfig, parser_fn):
    text = _read_text(cfg)
    try:
        return parser_fn(text)
    except ValueError as e:
        raise InputError(str(e)) from e


def _load_weights(cfg: RunConfig, kind: str):
    if kind == "csp":
        default, parser_fn = CspWeights.published(), parse_csp_weights
    else:
        default, parser_fn = ScWeights.published(), parse_sc_weights
    if cfg.weights is None:
        return default
    try:
        with open(cfg.weights) as fh:
            return parser_fn(fh.read())
    except (OSError, ValueError) as e:
        raise InputError(f"weights: {e}") from e


def _emit_stats(cfg: RunConfig, stats) -> None:
    if cfg.stats:
        for key, val in asdict(stats).items():
            _diag(f"stat,{key},{val}")


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _emit_audit(cfg: RunConfig, audit, violations) -> None:
    _diag(f"stat,audit_entries,{len(audit.entries)}")
    _diag(f"stat,audit_violations,{len(violations)}")
    for entry in violations:
        _diag(f"audit-violation,{entry}")


# -- solving -------------------------------------------------------------------


def _run_csp(cfg: RunConfig, inst) -> int:
    if cfg.weights is not None and not cfg.audit:
        raise InputError("--weights needs --audit-measure")
    audit = CspAudit(weights=_load_weights(cfg, "csp")) if cfg.audit else None
    sol, stats = solve(inst, policy=cfg.policy, audit=audit)
    order = inst.graph.vertices()
    if cfg.json_out:
        _emit_json(
            {
                "score": sol.score,
                "assignment": [sol.assignment[v] for v in order],
                "stats": asdict(stats),
            }
        )
    else:
        print(f"score {sol.score}")
        print("assignment " + " ".join(str(sol.assignment[v]) for v in order))
    _emit_stats(cfg, stats)
    if audit is not None:
        _emit_audit(cfg, audit, audit.violations)
    return 0


def cmd_solve_csp(cfg: RunConfig, args) -> int:
    return _run_csp(cfg, _parse_input(cfg, parse_csp))


def cmd_maxcut(cfg: RunConfig, args) -> int:
    return _run_csp(cfg, encode_maxcut(_parse_input(cfg, parse_graph)))


def cmd_max2sat(cfg: RunConfig, args) -> int:
    n_vars, clauses = _parse_input(cfg, parse_dimacs_2cnf)
    return _run_csp(cfg, encode_max2sat(n_vars, clauses))


# -- counting ------------------------------------------------------------------


def _print_counts(cfg: RunConfig, vec, n_top: int, stats=None) -> None:
    counts = vec.to_list(n_top)
    if cfg.json_out:
        payload = {"counts": counts}
        if stats is not None:
            payload["stats"] = asdict(stats)
        _emit_json(payload)
    else:
        print("counts " + " ".join(str(c) for c in counts))


def cmd_count_ds(cfg: RunConfig, args) -> int:
    if args.policy is not None and not args.subcubic:
        raise InputError("--policy needs --subcubic")
    if cfg.weights is not None and args.subcubic:
        raise InputError("--weights does not apply to --subcubic")
    lg = _parse_input(cfg, parse_labeled_graph)
    if args.subcubic:
        if lg.graph.max_degree() > 3:
            raise InputError(f"--subcubic needs max degree <= 3, got {lg.graph.max_degree()}")
        audit = DsAudit() if cfg.audit else None
        vec, stats = count_ds(lg, policy=cfg.policy, audit=audit)
        _print_counts(cfg, vec, lg.graph.n, stats)
        _emit_stats(cfg, stats)
        if audit is not None:
            _emit_audit(cfg, audit, audit.violations)
        return 0
    if any(lab != U_LABEL for lab in lg.label.values()):
        raise InputError("labels other than U need --subcubic")
    audit = ScAudit(weights=_load_weights(cfg, "sc")) if cfg.audit else None
    vec, stats = sc_count(ds_to_sc(lg.graph), _load_weights(cfg, "sc"), audit)
    _print_counts(cfg, vec, lg.graph.n, stats)
    _emit_stats(cfg, stats)
    if audit is not None:
        _emit_audit(cfg, audit, audit.violations)
    return 0


def cmd_count_sc(cfg: RunConfig, args) -> int:
    inst = _parse_input(cfg, parse_sc)
    audit = ScAudit(weights=_load_weights(cfg, "sc")) if cfg.audit else None
    vec, stats = sc_count(inst, _load_weights(cfg, "sc"), audit)
    _print_counts(cfg, vec, len(inst.set_ids), stats)
    _emit_stats(cfg, stats)
    if audit is not None:
        _emit_audit(cfg, audit, audit.violations)
    return 0


# -- separations ---------------------------------------------------------------


def cmd_separate(cfg: RunConfig, args) -> int:
    g = _parse_input(cfg, parse_graph)
    sep = separate_cubic(g, nice_path_decomposition(g))
    sides = {name: sorted(getattr(sep, name)) for name in ("left", "sep", "right")}
    if cfg.json_out:
        _emit_json(sides)
    else:
        for name in ("left", "sep", "right"):
            print(name + ("" if not sides[name] else
                          " " + " ".join(map(str, sides[name]))))
    if cfg.stats:
        for name in ("left", "sep", "right"):
            _diag(f"stat,{name}_size,{len(sides[name])}")
    return 0


# -- generation ----------------------------------------------------------------


def cmd_gen(cfg: RunConfig, args) -> int:
    fam = args.family
    if args.seed is not None and fam not in ("cubic", "csp"):
        raise InputError(f"--seed does not apply to the fixed family {fam}")
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
            out = format_csp(gen_random_csp(n, m, args.r, args.seed or 0))
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


def cmd_trace_lb(cfg: RunConfig, args) -> int:
    fam = args.family
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
    if cfg.json_out:
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
    if cfg.stats:
        for t, step in enumerate(trace.steps):
            _diag(f"stat,step{t},pivot={step.pivot} degree={step.degree} "
                  f"order={step.order_after}")
    return 0


# -- auditing ------------------------------------------------------------------


def cmd_audit_measure(cfg: RunConfig, args) -> int:
    if args.system == "csp":
        w = _load_weights(cfg, "csp")
        report = check_csp(w)
        numbers = exponent_csp(w) if report.feasible else None
    else:
        w = _load_weights(cfg, "sc")
        report = check_sc(w)
        numbers = exponent_sc(w) if report.feasible else None
    sys.stderr.write(format_report(report))
    if numbers is None:
        if cfg.json_out:
            _emit_json({"feasible": False})
        else:
            print("feasible=false")
        return 0
    exponent, base = numbers
    if cfg.json_out:
        _emit_json(
            {"feasible": True, "exponent": float(exponent), "base": round(base, 4)}
        )
    else:
        print(f"feasible=true exponent={float(exponent):.5f} base={base:.4f}")
    return 0


# -- oracles -------------------------------------------------------------------


def cmd_oracle(cfg: RunConfig, args) -> int:
    if args.problem == "csp":
        inst = _parse_input(cfg, parse_csp)
        sol = brute_max2csp(inst)
        order = inst.graph.vertices()
        if cfg.json_out:
            _emit_json(
                {"score": sol.score,
                 "assignment": [sol.assignment[v] for v in order]}
            )
        else:
            print(f"score {sol.score}")
            print("assignment " + " ".join(str(sol.assignment[v]) for v in order))
    elif args.problem == "ds":
        lg = _parse_input(cfg, parse_labeled_graph)
        _print_counts(cfg, brute_domset(lg), lg.graph.n)
    else:
        inst = _parse_input(cfg, parse_sc)
        _print_counts(cfg, brute_setcover(inst), len(inst.set_ids))
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
    gen.add_argument("--r", type=int, default=2)
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
    cfg = RunConfig(
        subcommand=args.subcommand,
        input=getattr(args, "input", None),
        audit=getattr(args, "audit", False),
        stats=getattr(args, "stats", False),
        policy=getattr(args, "policy", None) or "separator",
        weights=getattr(args, "weights", None),
        json_out=getattr(args, "json_out", False),
    )
    try:
        return _HANDLERS[cfg.subcommand](cfg, args)
    except InputError as e:
        _diag(f"error: {e}")
        return 2
    except (ValueError, AssertionError, OverflowError, RecursionError) as e:
        _diag(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
