"""Feasibility audit of the two weight-constraint systems.

Every constraint that is free of transcendental terms is decided in exact
rational arithmetic.  The branching-sum constraints (sums of powers of 2
with weight-linear exponents) are evaluated in floating point with a
1e-12 acceptance tolerance; their slack is reported as a float.

The Max 2-CSP system carries the separator-quality slack ε in a single
constraint (r1).  ε is "arbitrarily small": feasibility is decided in the
ε → 0⁺ limit, and the literal value at the supplied ε is reported as
metadata together with the largest admissible ε (which is 0 whenever the
limit form is binding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .weights import CspWeights, ScWeights

BINDING_SLACK = Fraction(1, 10**9)
FLOAT_TOL = 1e-12


@dataclass
class ConstraintRow:
    cid: str
    lhs: object  # Fraction (exact rows) or float (branching sums)
    rhs: object
    ok: bool

    @property
    def slack(self):
        return self.rhs - self.lhs


@dataclass
class ConstraintReport:
    system: str
    rows: list[ConstraintRow]
    meta: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def binding(self) -> list[str]:
        return [r.cid for r in self.rows if r.ok and r.slack < BINDING_SLACK]

    def row(self, cid: str) -> ConstraintRow:
        for r in self.rows:
            if r.cid == cid:
                return r
        raise KeyError(cid)


def _le0(cid: str, lhs: Fraction, strict: bool = False) -> ConstraintRow:
    ok = lhs < 0 if strict else lhs <= 0
    return ConstraintRow(cid, lhs, Fraction(0), ok)


# -- Max 2-CSP system --------------------------------------------------------------


def _csp_linear_rows(w: CspWeights) -> list[tuple[str, Fraction]]:
    """The 16 inequalities in lhs ≤ 0 form, in the ε → 0⁺ limit (base w_r)."""
    ws, w2, wr, wb, wc = w.w_s, w.w2_s, w.w_r, w.w_b, w.w_c
    return [
        ("degredL", -wb + wc),
        ("degredS", -ws + w2),
        ("degredR1", -wr + wc),
        ("degredR2", -wr + wb - wc),
        ("r1", ws / 6 + wr * Fraction(5, 12) - wr),
        ("2S1", -w2 + ws - wr + wc),
        ("2S0", -w2 + ws - wr + wb - wc),
        ("r2", -ws + wr),
        ("noR2", -ws + wc),
        ("noR1", -ws + wb - wc),
        ("r5", 1 - 2 * ws + w2 - wr),
        ("red2L0", 1 - ws - wr - wb + wc),
        ("red2L1", 1 - ws - wr - wc),
        ("red2L2", -wr + wb),
        ("red2R1", 1 - ws - 2 * wr - wc + wb),
        ("red2R2", 1 - ws - 2 * wr + wc),
    ]


def _r1_eps_max(w: CspWeights) -> Fraction | None:
    """Largest ε ≥ 0 with w_s(1/6+ε) + (5/12)(w_r+ε) ≤ w_r+ε; None = unbounded."""
    slope = w.w_s - Fraction(7, 12)
    margin = Fraction(7, 12) * w.w_r - w.w_s / 6
    if slope > 0:
        return max(Fraction(0), margin / slope)
    # lhs non-increasing in ε: either every ε works or none does
    return None if margin >= 0 else Fraction(0)


def check_csp(w: CspWeights) -> ConstraintReport:
    fields = (w.w_s, w.w2_s, w.w_r, w.w_b, w.w_c)
    rows = [_le0("nonneg", -min(fields))]
    rows += [_le0(cid, lhs) for cid, lhs in _csp_linear_rows(w)]
    # literal (r1) at the supplied ε, with the measure constant w_r + ε
    wre = w.w_r_eff
    r1_at_eps = w.w_s * (Fraction(1, 6) + w.eps) + wre * Fraction(5, 12) - wre
    meta = {
        "eps": w.eps,
        "r1_lhs_at_eps": r1_at_eps,
        "r1_ok_at_eps": r1_at_eps <= 0,
        "r1_eps_max": _r1_eps_max(w),
    }
    return ConstraintReport("csp", rows, meta)


# -- counting set cover system -----------------------------------------------------


def _compositions(k: int, total: int):
    """All tuples of k nonnegative ints summing to total."""
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(k - 1, total - first):
            yield (first,) + rest


def _ds4_degrees(d: int, exclude_top: bool) -> list[int]:
    """Neighbor-degree buckets for a degree-d pivot.

    Degrees above 6 share one bucket (weights are flat there and the
    Δw(d)·(i−1) term carries Δw(d) = 0 for d ≥ 7, so the bucket is exact).
    """
    top = d - 1 if exclude_top else d
    if top <= 6:
        return list(range(2, top + 1))
    return [2, 3, 4, 5, 6, 7]


def _ds4_max(w: ScWeights, pivot_is_set: bool, d: int, exhaustive: bool) -> float:
    """Worst branching sum over neighbor-degree multisets for one pivot degree.

    Each term is an exponential of a linear form in the multiset vector, so
    the maximum over the composition simplex sits at a vertex (all d
    neighbors sharing one degree); the exhaustive sweep is kept as the
    reference evaluation.
    """
    if pivot_is_set:
        wd, dwd = float(w.wset(d)), float(w.d_set(d))
        nb_w, nb_dw = w.welt, w.d_elt
    else:
        wd, dwd = float(w.welt(d)), float(w.d_elt(d))
        nb_w, nb_dw = w.wset, w.d_set
    degs = _ds4_degrees(d, exclude_top=pivot_is_set)
    nw = [float(nb_w(i)) for i in degs]
    ndw = [float(nb_dw(i)) for i in degs]
    worst = 0.0
    if exhaustive:
        pool = _compositions(len(degs), d)
    else:
        pool = (tuple(d if j == i else 0 for j in range(len(degs)))
                for i in range(len(degs)))
    for r in pool:
        e_take = wd + dwd * sum(r[i] * (degs[i] - 1) for i in range(len(degs)))
        e_take += sum(r[i] * nw[i] for i in range(len(degs)))
        e_drop = wd + sum(r[i] * ndw[i] for i in range(len(degs)))
        lhs = 2.0 ** -e_take + 2.0 ** -e_drop
        if lhs > worst:
            worst = lhs
    return worst


def _float_row(cid: str, lhs: float) -> ConstraintRow:
    return ConstraintRow(cid, lhs, 1.0, lhs <= 1.0 + FLOAT_TOL)


def check_sc(w: ScWeights, exhaustive: bool = True) -> ConstraintReport:
    f0 = Fraction(0)
    rows: list[ConstraintRow] = []
    rows.append(_le0("w01", max(abs(x) for x in
                                (w.w_elt[0], w.w_elt[1], w.w_set[0], w.w_set[1]))))
    rows.append(_le0("mono-elt", max(-w.d_elt(i) for i in range(2, 7))))
    rows.append(_le0("mono-set", max(-w.d_set(i) for i in range(2, 7))))
    rows.append(_le0("concave-elt", max(w.d_elt(i + 1) - w.d_elt(i)
                                        for i in range(2, 7))))
    rows.append(_le0("concave-set", max(w.d_set(i + 1) - w.d_set(i)
                                        for i in range(2, 7))))
    rows.append(_le0("deg-dec-N2-elt", 2 * w.d_elt(3) - w.w_elt[2]))
    rows.append(_le0("deg-dec-N2-set", 2 * w.d_set(4) - w.w_set[2]))
    for d in range(4, 13):
        rows.append(_float_row(f"ds4set-{d}", _ds4_max(w, True, d, exhaustive)))
    for d in range(4, 13):
        rows.append(_float_row(f"ds4elt-{d}", _ds4_max(w, False, d, exhaustive)))

    delta = w.delta_deg_dec()
    rows.append(_le0("delta-deg-dec", -delta))
    rows.append(_le0("separation",
                     w.w_sep[3] - Fraction(7, 2) * w.w_right[3], strict=True))
    for d in (2, 3):
        rows.append(_le0(f"no-nb-L-{d}", -w.wsep(d) + w.wright(d)))
    for d in (2, 3):
        rows.append(_le0(f"no-nb-R-{d}", -w.wsep(d) + w.wright(d) / 2))
    rows.append(_le0("deg2-in-S",
                     -w.w_sep[2] + w.w_sep[3] + (w.w_right[2] - w.w_right[3]) / 2))
    rows.append(_le0("drag-N2-sep", 2 * w.d_sep(3) - w.w_sep[2]))
    rows.append(_le0("drag-N2-right", 2 * w.d_right(3) - w.w_right[2]))

    ws3, dws3, dlt = float(w.w_sep[3]), float(w.d_sep(3)), float(delta)
    wr = lambda d: float(w.wright(d))
    dwr = lambda d: float(w.d_right(d))
    for dl in (2, 3):
        for dr in (2, 3):
            if dl > dr:
                continue
            lhs = (2.0 ** (-ws3 - dws3 - (dwr(dr) + dwr(dl)) / 2)
                   + 2.0 ** (-2 * ws3 - (wr(dr) + wr(dl)) / 2 - (dr + dl) * dlt))
            rows.append(_float_row(f"branch-SS-bal-{dl}{dr}", lhs))
    for dr in (2, 3):
        lhs = (2.0 ** (-ws3 - dws3 - dwr(dr))
               + 2.0 ** (-2 * ws3 - wr(dr) - dr * dlt))
        rows.append(_float_row(f"branch-SS-imbal-{dr}", lhs))
    for ds in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)):
        lhs = (2.0 ** (-ws3 - sum(dwr(d) for d in ds) / 2)
               + 2.0 ** (-ws3 - sum(wr(d) for d in ds) / 2
                         - (sum(ds) - 3) * dlt))
        rows.append(_float_row("branch2-" + "".join(map(str, ds)), lhs))
    for d in (2, 3):
        lhs = 2.0 * 2.0 ** (-ws3 - wr(2) - dwr(d))
        rows.append(_float_row(f"imbal-2L-{d}", lhs))

    rows.append(_le0("bridge-elt-3", w.w_right[3] - w.w_elt[3], strict=True))
    rows.append(_le0("bridge-set-3", w.w_right[3] - w.w_set[3], strict=True))
    rows.append(_le0("bridge-elt-low",
                     max(w.wright(i) - w.welt(i) for i in (0, 1, 2))))
    rows.append(_le0("bridge-set-low",
                     max(w.wright(i) - w.wset(i) for i in (0, 1, 2))))

    # degrees beyond the enumerated cap: the d = 12 instantiation dominates
    tail_worst = max(
        _ds4_max(w, pivot_is_set, d, exhaustive=False)
        for pivot_is_set in (True, False)
        for d in range(13, 21)
    )
    meta = {
        "delta_deg_dec": delta,
        "ds4_tail_max": tail_worst,
        "ds4_tail_ok": tail_worst <= 1.0 + FLOAT_TOL,
    }
    return ConstraintReport("sc", rows, meta)


# -- exponents ---------------------------------------------------------------------


def exponent_csp(w: CspWeights, r: int = 3) -> tuple[Fraction, float]:
    """Per-vertex exponent (base value of w_r) and the numeric base r^{w_r}."""
    if not check_csp(w).feasible:
        raise ValueError("weights are infeasible")
    return w.w_r, float(r) ** float(w.w_r)


def exponent_sc(w: ScWeights) -> tuple[Fraction, float]:
    if not check_sc(w).feasible:
        raise ValueError("weights are infeasible")
    e = w.w_elt[6] + w.w_set[6]
    return e, 2.0 ** float(e)


# -- report rendering --------------------------------------------------------------


def _fmt_val(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)


def format_report(rep: ConstraintReport) -> str:
    lines = [f"system={rep.system} feasible={'true' if rep.feasible else 'false'}"]
    binding = rep.binding
    lines.append("binding: " + (" ".join(binding) if binding else "(none)"))
    for key in sorted(rep.meta):
        lines.append(f"meta {key}={_fmt_val(rep.meta[key])}")
    width = max(len(r.cid) for r in rep.rows)
    for r in rep.rows:
        lines.append(
            f"CONSTRAINT {r.cid:<{width}} lhs={_fmt_val(r.lhs)} "
            f"slack={_fmt_val(r.slack)} ok={'true' if r.ok else 'false'}"
        )
    return "\n".join(lines) + "\n"
