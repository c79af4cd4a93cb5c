"""Branching measures and potentials, and the runtime audit of all three
engines.

Everything here is pure bookkeeping: the solvers never consult a measure
to make a decision.  With an ``Audit`` attached, an engine takes a
snapshot of the numbers (μ, η, progress, side weights, active count)
before each step and of each child after it, and hands both to the audit.

Logarithms are evaluated from exact rational inputs at 30 significant
decimal digits and returned as exact ``Fraction`` snapshots of that
evaluation, so measure values are deterministic across platforms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable

from .graph import Graph
from .policy import side_counts
from .separator import Separation
from .weights import CspWeights, ScWeights

LOG_PRECISION = 30


@functools.lru_cache(maxsize=None)
def _ln(num: int, den: int) -> Fraction:
    with localcontext() as ctx:
        ctx.prec = LOG_PRECISION
        return Fraction((Decimal(num) / Decimal(den)).ln())


def rational_log(x: Fraction, base: Fraction) -> Fraction:
    """log_base(x) evaluated at fixed precision; requires x > 0, base > 1."""
    if x <= 0 or base <= 1:
        raise ValueError("rational_log needs x > 0 and base > 1")
    return _ln(x.numerator, x.denominator) / _ln(base.numerator, base.denominator)


# -- Max 2-CSP measure (subcubic phase) -------------------------------------------


def csp_mu(g: Graph, sep: Separation, w: CspWeights) -> Fraction:
    """μ(L,S,R) for a subcubic instance graph, in the physical orientation.

    The side roles are taken exactly as presented: the solver keeps
    |L₃| ≤ |R₃| at the entry of each step, and each step's output is
    measured as produced, before the child renormalizes.  (Measuring the
    renormalized child instead would charge a step for the relabeling
    itself; the per-case analysis pays for real work only.)  The log
    argument is clamped at 1 so near-empty instances stay nonnegative.
    """
    dmax = g.max_degree()
    if dmax > 3:
        raise ValueError(f"max degree {dmax} > 3")
    l3, s3, s2, r3 = side_counts(g, sep)
    mu = w.w_s * s3 + w.w2_s * s2 + w.w_r_eff * r3
    if r3 == l3:
        mu += w.w_b
    elif r3 == l3 + 1:
        mu += w.w_c
    arg = max(1, r3 + s3)
    mu += w.w_d * rational_log(Fraction(arg), Fraction(3, 2))
    return mu


def csp_eta(g: Graph, sep: Separation) -> int:
    """η = 3|S| + 2|R| + |L| + 2|E|; strictly decreases at every solver step."""
    return 3 * len(sep.sep) + 2 * len(sep.right) + len(sep.left) + 2 * g.m


def csp_snapshot(g: Graph, sep: Separation, w: CspWeights) -> dict:
    return {"mu": float(csp_mu(g, sep, w)), "eta": csp_eta(g, sep)}


# -- counting set cover measures ---------------------------------------------------
#
# The instance argument is duck-typed: it must provide .incidence, the
# graph that is the whole instance, is_set(v) and .sep (see ScIncidence).


def sc_mu4(inst, w: ScWeights) -> Fraction:
    """Degree-weighted measure for the general (max degree ≥ 4) phase."""
    mu = Fraction(0)
    g = inst.incidence
    for v in g.vertices():
        d = g.degree(v)
        mu += w.wset(d) if inst.is_set(v) else w.welt(d)
    return mu


def sc_side_weights(inst, w: ScWeights) -> tuple[Fraction, Fraction, Fraction]:
    """(μ_r(L), μ_s(S), μ_r(R)) in the instance's physical orientation."""
    mu_l = mu_s = mu_r = Fraction(0)
    g = inst.incidence
    for v in g.vertices():
        d = g.degree(v)
        side = inst.sep.side_of(v)
        if side == "S":
            mu_s += w.wsep(d)
        elif side == "L":
            mu_l += w.wright(d)
        else:
            mu_r += w.wright(d)
    return mu_l, mu_s, mu_r


def sc_mu3_parts(inst, w: ScWeights) -> tuple[Fraction, Fraction]:
    """(linear part, log argument) of the subcubic separation measure.

    μ₃ = μ_s(S) + μ_r(R) + max(0, B − (μ_r(R) − μ_r(L))/2)
         + (1+B)·log_{1+ε}(μ_r(R) + μ_s(S)),

    computed orientation-canonically (the heavier side plays R).  The
    log argument is returned separately so the audit can freeze it
    across a parent/child comparison.
    """
    mu_l, mu_s, mu_r = sc_side_weights(inst, w)
    lo, hi = min(mu_l, mu_r), max(mu_l, mu_r)
    linear = mu_s + hi + max(Fraction(0), w.B - (hi - lo) / 2)
    return linear, hi + mu_s


def sc_mu3(inst, w: ScWeights, frozen_arg: Fraction | None = None) -> Fraction:
    linear, arg = sc_mu3_parts(inst, w)
    if frozen_arg is not None:
        arg = frozen_arg
    arg = max(Fraction(1), arg)
    return linear + (1 + w.B) * rational_log(arg, 1 + w.eps)


def sc_progress(inst, w: ScWeights) -> Fraction:
    """Termination potential for the subcubic phase; drops ≥ 1 per step.

    (|S₂| + |S|)·μ_r(V)/w_right(2) + |μ_r(R) − μ_r(L)|/w_right(2),
    where μ_r(V) weights every vertex with w_right.
    """
    s2 = s_total = 0
    mu_all = Fraction(0)
    g = inst.incidence
    for v in g.vertices():
        d = g.degree(v)
        mu_all += w.wright(d)
        if inst.sep.side_of(v) == "S":
            s_total += 1
            if d == 2:
                s2 += 1
    mu_l, _, mu_r = sc_side_weights(inst, w)
    wr2 = w.wright(2)
    return (s2 + s_total) * mu_all / wr2 + abs(mu_r - mu_l) / wr2


def sc_snapshots(parent, w: ScWeights, frozen_arg: Fraction | None = None,
                 ladder: bool = False) -> Callable[[object], dict]:
    """Snapshots for a step from `parent`, all in parent's phase: μ₃ while
    no degree exceeds 3, μ₄ otherwise, and the vertex count ("active"); on a
    separator-ladder step also the progress potential and the side
    weights (μ_r(L), μ_r(R)).  Within the subcubic phase μ₃'s log
    argument stays frozen_arg, its value at the last re-separation, and
    eq:sep pays for its growth."""
    subcubic = parent.incidence.max_degree() <= 3

    def snap(inst) -> dict:
        mu = sc_mu3(inst, w, frozen_arg) if subcubic else sc_mu4(inst, w)
        out = {"mu": float(mu), "active": inst.incidence.n}
        if ladder:
            mu_l, _, mu_r = sc_side_weights(inst, w)
            out.update(progress=sc_progress(inst, w), sides=(mu_l, mu_r))
        return out

    return snap


# -- the audit -----------------------------------------------------------------

MU_REL_SLACK = 1e-9
# Checks that strict mode enforces on every step, hard or not.
ENFORCED = ("balance", "shrink")


@dataclass
class AuditEntry:
    """One audited step: each named check and whether it held, and the
    numbers the checks compared, a snapshot number as (before the step,
    one per child after it)."""
    kind: str
    hard: bool
    checks: dict[str, bool]
    numbers: dict[str, object]
    note: str = ""

    @property
    def ok(self) -> bool:
        # "balance" is only logged: the drag rules trade it against the
        # literal μ bookkeeping
        return all(held for name, held in self.checks.items() if name != "balance")


class Audit:
    """Per-step bookkeeping of the three engines.  A hard step that fails
    a check is a violation, and strict mode raises at it; steps whose
    quality rests on the separator (splits, re-separations, stalls) are
    recorded with the same numbers but are soft."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.entries: list[AuditEntry] = []

    @property
    def violations(self) -> list[AuditEntry]:
        return [e for e in self.entries if e.hard and not e.ok]

    def add(self, kind: str, hard: bool, checks: dict[str, bool],
            numbers: dict[str, object], note: str = "") -> None:
        entry = AuditEntry(kind, hard, checks, numbers, note)
        self.entries.append(entry)
        if self.strict and (hard and not entry.ok
                            or not all(checks.get(name, True) for name in ENFORCED)):
            raise AssertionError(f"audit violation at {kind}: {entry}")

    def step(self, kind: str, base: int, before: dict, after: list[dict],
             falls: tuple[str, ...] = (), cap: Fraction | None = None,
             hard: bool = True, note: str = "") -> None:
        """Record a step from the snapshot taken before it and those of its
        children after it (none at a terminal).  The checks:

            mu        Σ base^μ(child) ≤ base^μ(before), relative slack 1e-9
            <falls>   each potential named in falls drops by ≥ 1 per child
            balance   with a cap, when the side weights differ by more than
                      cap, each child loses at least as much weight from
                      the heavy side as from the light one
        """
        # divided through by base^μ(before), which overflows a float past μ ≈ 1024
        checks = {"mu": sum(base ** (a["mu"] - before["mu"]) for a in after)
                  <= 1.0 + MU_REL_SLACK}
        for name in falls:
            checks[name] = all(a[name] <= before[name] - 1 for a in after)
        if cap is not None:
            pl, pr = before["sides"]
            checks["balance"] = abs(pr - pl) <= cap or all(
                pr - cr >= pl - cl if pr >= pl else pl - cl >= pr - cr
                for cl, cr in (a["sides"] for a in after))
        numbers = {name: (val, tuple(a[name] for a in after))
                   for name, val in before.items() if name != "sides"}
        self.add(kind, hard, checks, numbers, note)
