"""Weight tables, measures, and the constraint-system audit."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smc.audit import (
    check_csp,
    check_sc,
    exponent_csp,
    exponent_sc,
    format_report,
    improve_weights,
)
from smc.graph import Graph
from smc.measures import (
    Audit,
    csp_eta,
    csp_mu,
    rational_log,
    sc_mu3_parts,
    sc_mu4,
    sc_progress,
)
from smc.policy import side_counts
from smc.separator import Separation, trivial_separation
from smc.setcover import ds_to_sc
from smc.weights import (
    CspWeights,
    ScWeights,
    format_csp_weights,
    format_sc_weights,
    parse_csp_weights,
    parse_sc_weights,
)

F = Fraction


def all_zero_csp():
    return CspWeights(F(0), F(0), F(0), F(0), F(0))


def all_zero_sc():
    return ScWeights((F(0),) * 7, (F(0),) * 7, (F(0),) * 4, (F(0),) * 4)


class TestWeights:
    def test_published_csp_values(self):
        w = CspWeights.published()
        assert (w.w_s, w.w2_s, w.w_r, w.w_b, w.w_c) == (
            F(7, 10), F(3, 5), F(1, 5), F(1, 5), F(1, 10))
        assert w.w_d == F(6, 5)
        assert w.w_r_eff == F(1, 5) + F(1, 1000)

    def test_published_sc_values(self):
        w = ScWeights.published()
        assert w.w_right[3] == F("0.22669")
        assert w.B == 6 * F("0.22669")
        assert w.welt(11) == w.w_elt[6]
        assert w.d_elt(7) == 0
        assert w.delta_deg_dec() == w.w_sep[3] - w.w_sep[2] + 0  # 0.03313
        assert w.delta_deg_dec() == F("0.03313")

    def test_csp_file_round_trip(self):
        w = CspWeights.published().replaced(w_r=F(1, 3))
        assert parse_csp_weights(format_csp_weights(w)) == w

    def test_sc_file_round_trip(self):
        w = ScWeights.published().with_entry("w_elt", 4, F("0.27"))
        assert parse_sc_weights(format_sc_weights(w)) == w

    def test_partial_file_overrides_published(self):
        w = parse_csp_weights("w_r 0.25\n# comment\n")
        assert w.w_r == F(1, 4) and w.w_s == F(7, 10)
        ws = parse_sc_weights("w_sep 3 0.80\n")
        assert ws.w_sep[3] == F("0.80") and ws.w_sep[2] == F("0.75630")

    def test_rational_values_accepted(self):
        assert parse_csp_weights("w_r 1/5\n").w_r == F(1, 5)

    @pytest.mark.parametrize("text", ["w_q 0.5\n", "w_elt 0.5\n", "w_s\n"])
    def test_bad_csp_lines(self, text):
        with pytest.raises(ValueError):
            parse_csp_weights(text)

    def test_bad_sc_degree(self):
        with pytest.raises(ValueError):
            parse_sc_weights("w_sep 4 0.5\n")


class TestCspMeasure:
    def test_path_all_right(self):
        g = Graph.path(3)
        w = CspWeights.published()
        sep = trivial_separation(g.vertices())
        # no degree-3 vertices: balance bonus plus a clamped log term
        assert csp_mu(g, sep, w) == w.w_b

    def test_k4_hand_value(self):
        g = Graph.complete(4)
        w = CspWeights.published()
        sep = Separation(left=set(), sep={0, 1, 2}, right={3})
        expected = (3 * w.w_s + w.w_r_eff + w.w_c
                    + w.w_d * rational_log(F(4), F(3, 2)))
        assert csp_mu(g, sep, w) == expected
        assert abs(float(expected) - 6.5037) < 1e-3

    def test_physical_orientation(self):
        # μ reads the sides as presented: w_r weights the physical R.  The
        # solver keeps |L₃| ≤ |R₃| at step entry, and children are measured
        # as produced, so a flipped presentation is strictly cheaper.
        g = Graph.complete(4)
        w = CspWeights.published()
        flipped = Separation(left={3}, sep={0, 1, 2}, right=set())
        normal = Separation(left=set(), sep={0, 1, 2}, right={3})
        # flipped: no w_r term, no near-balance bonus, log over r3+s3 = 3
        assert csp_mu(g, flipped, w) == 3 * w.w_s + w.w_d * rational_log(F(3), F(3, 2))
        assert csp_mu(g, flipped, w) < csp_mu(g, normal, w)
        # balanced separations are symmetric, so there the swap is free
        g2 = Graph.complete(4)
        even = Separation(left={0, 1}, sep=set(), right={2, 3})
        even_sw = Separation(left={2, 3}, sep=set(), right={0, 1})
        assert csp_mu(g2, even, w) == csp_mu(g2, even_sw, w)

    def test_side_counts(self):
        # K4 on 0-3 with 0 in L; a K4 on 4-7 in R; the path 8-9-10 across S
        g = Graph(range(11), [*((i, j) for i in range(4) for j in range(i + 1, 4)),
                              *((i, j) for i in range(4, 8) for j in range(i + 1, 8)),
                              (8, 9), (9, 10)])
        sep = Separation({0, 8}, {1, 2, 3, 9}, {4, 5, 6, 7, 10})
        assert side_counts(g, sep) == (1, 3, 1, 4)

    def test_csp_mu_needs_max_degree_3(self):
        g = Graph.complete(4)
        g.add_vertex(9)
        g.add_edge(9, 0)  # vertex 0 gets degree 4
        sep = trivial_separation(g.vertices())
        with pytest.raises(ValueError):
            csp_mu(g, sep, CspWeights.published())
        # the side counter serves the general phase too, and skips degree 4
        assert side_counts(g, sep) == (0, 0, 0, 3)

    def test_eta(self):
        g = Graph.complete(4)
        sep = trivial_separation(g.vertices())
        assert csp_eta(g, sep) == 2 * 4 + 2 * 6
        sep2 = Separation(left={0}, sep={1, 2}, right={3})
        assert csp_eta(g, sep2) == 1 + 3 * 2 + 2 * 1 + 2 * 6

    def test_log_helper(self):
        got = rational_log(F(4), F(3, 2))
        assert abs(float(got) - math.log(4) / math.log(1.5)) < 1e-12
        with pytest.raises(ValueError):
            rational_log(F(0), F(3, 2))


class TestScMeasures:
    def test_mu4_triangle_translation(self):
        inst = ds_to_sc(Graph.complete(3))
        w = ScWeights.published()
        assert sc_mu4(inst, w) == 3 * (w.w_elt[3] + w.w_set[3])

    def test_mu3_parts_trivial_sep(self):
        inst = ds_to_sc(Graph.complete(3))
        w = ScWeights.published()
        linear, arg = sc_mu3_parts(inst, w)
        # all six degree-3 vertices on the right: μ_r(R) = 6·w_right(3) = B
        assert arg == w.B
        assert linear == w.B + w.B / 2

    def test_mu3_orientation_invariance(self):
        inst = ds_to_sc(Graph.complete(3))
        w = ScWeights.published()
        a = sc_mu3_parts(inst, w)
        inst.sep.swap()
        assert sc_mu3_parts(inst, w) == a

    def test_progress_trivial_sep(self):
        inst = ds_to_sc(Graph.complete(3))
        w = ScWeights.published()
        assert sc_progress(inst, w) == w.B / w.w_right[2]


class TestAudit:
    def test_measure_past_float_range(self):
        # 2^1500 overflows a float; the check divides by 2^μ(before) first
        audit = Audit(strict=True)
        audit.step("drag-R", 2, {"mu": 1500.0}, [{"mu": 1499.5}])
        audit.step("drag-R", 2, {"mu": 1500.0}, [{"mu": 1499.0}, {"mu": 1499.0}])
        assert [e.checks for e in audit.entries] == [{"mu": True}] * 2
        audit.strict = False
        audit.step("drag-R", 2, {"mu": 1500.0}, [{"mu": 1499.5}, {"mu": 1499.5}])
        assert len(audit.violations) == 1

    def test_balance_is_logged_beside_ok(self):
        audit = Audit()
        # the heavy side R keeps its weight while L loses some
        audit.step("drag-R", 2, {"mu": 1.0, "sides": (F(2), F(5))},
                   [{"mu": 1.0, "sides": (F(1), F(5))}], cap=F(1))
        entry, = audit.entries
        assert entry.checks["balance"] is False and entry.ok
        assert "sides" not in entry.numbers and audit.violations == []
        with pytest.raises(AssertionError):
            Audit(strict=True).step("drag-R", 2, {"mu": 1.0, "sides": (F(2), F(5))},
                                    [{"mu": 1.0, "sides": (F(1), F(5))}], cap=F(1))

    def test_strict_enforces_shrink_on_a_soft_step(self):
        audit = Audit(strict=True)
        audit.add("handover", False, {"mu": False}, {})
        with pytest.raises(AssertionError):
            audit.add("reseparate", False, {"shrink": False}, {})


class TestCheckCsp:
    def test_published_feasible(self):
        rep = check_csp(CspWeights.published())
        assert rep.feasible
        assert len([r for r in rep.rows if r.cid != "nonneg"]) == 16

    def test_published_binding_set(self):
        rep = check_csp(CspWeights.published())
        assert set(rep.binding) == {
            "r1", "2S1", "2S0", "r5", "red2L0", "red2L1",
            "red2L2", "red2R1", "red2R2",
        }
        assert "r2" not in rep.binding  # slack 1/2, reported non-binding

    def test_low_wr_violates_r1(self):
        rep = check_csp(CspWeights.published().replaced(w_r=F("0.19")))
        assert not rep.feasible
        row = rep.row("r1")
        assert not row.ok
        # 0.7/6 + 0.19·5/12 − 0.19 exactly
        assert row.lhs == F(7, 10) / 6 + F("0.19") * F(5, 12) - F("0.19")

    def test_all_zero_violates_r5(self):
        rep = check_csp(all_zero_csp())
        assert not rep.feasible and not rep.row("r5").ok

    def test_exactness(self):
        rep = check_csp(CspWeights.published())
        assert all(isinstance(r.lhs, Fraction) for r in rep.rows)

    def test_supplied_eps_metadata(self):
        rep = check_csp(CspWeights.published())
        # the limit form binds, so no positive ε admits the literal form
        assert rep.meta["r1_eps_max"] == 0
        assert rep.meta["r1_ok_at_eps"] is False
        assert rep.meta["r1_lhs_at_eps"] == F(7, 60000)

    def test_eps_headroom_when_slack(self):
        rep = check_csp(CspWeights.published().replaced(w_r=F("0.25")))
        assert rep.feasible
        assert rep.meta["r1_eps_max"] > 0
        assert rep.meta["r1_ok_at_eps"] is True


class TestCheckSc:
    def test_published_feasible(self):
        rep = check_sc(ScWeights.published())
        assert rep.feasible
        assert rep.meta["ds4_tail_ok"]

    def test_no_subcubic_constraint_tight(self):
        # the degree-3 phase families all keep real slack at the published table
        rep = check_sc(ScWeights.published())
        subcubic_prefixes = ("branch", "no-nb", "deg2-in-S", "separation",
                             "drag", "imbal")
        assert not any(b.startswith(subcubic_prefixes) for b in rep.binding)

    def test_separation_violated_at_080(self):
        w = ScWeights.published()
        w = w.replaced(w_sep=(F(0), F(0), w.w_sep[2], F("0.80")))
        rep = check_sc(w)
        assert not rep.feasible and not rep.row("separation").ok
        assert rep.row("separation").lhs == F("0.80") - F(7, 2) * F("0.22669")

    def test_all_zero_violates_ds4set_4(self):
        rep = check_sc(all_zero_sc())
        assert not rep.feasible
        row = rep.row("ds4set-4")
        assert not row.ok and row.lhs == 2.0

    def test_exhaustive_and_vertex_sweep_agree(self):
        # branching-sum maxima sit at single-degree multisets; mixed
        # multisets can tie exactly (flat Δw), so allow rounding noise
        full = check_sc(ScWeights.published(), exhaustive=True)
        fast = check_sc(ScWeights.published(), exhaustive=False)
        for a, b in zip(full.rows, fast.rows):
            assert a.cid == b.cid
            if isinstance(a.lhs, Fraction):
                assert a.lhs == b.lhs
            else:
                assert abs(a.lhs - b.lhs) < 1e-12

    def test_algebraic_rows_exact(self):
        rep = check_sc(ScWeights.published())
        for r in rep.rows:
            if not r.cid.startswith(("ds4", "branch", "imbal-2L")):
                assert isinstance(r.lhs, Fraction), r.cid


class TestExponents:
    def test_csp_base(self):
        exp, base = exponent_csp(CspWeights.published())
        assert exp == F(1, 5)
        assert abs(base - 1.2458) < 1e-4

    def test_sc_base(self):
        exp, base = exponent_sc(ScWeights.published())
        assert exp == F("0.60243")
        assert abs(base - 1.5183) < 1e-4

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            exponent_csp(all_zero_csp())
        with pytest.raises(ValueError):
            exponent_sc(all_zero_sc())

    def test_flat_tables_are_worse(self):
        # collapsing the degree profile to a single constant forces a
        # strictly larger exponent than the published table's 0.60243
        base_w = ScWeights.published()

        def flat(c):
            t = (F(0), F(0), c, c, c, c, c)
            return base_w.replaced(w_elt=t, w_set=t)

        lo, hi = F(0), F(1)
        for _ in range(30):
            mid = (lo + hi) / 2
            if check_sc(flat(mid), exhaustive=False).feasible:
                hi = mid
            else:
                lo = mid
        assert check_sc(flat(hi)).feasible
        exp, _ = exponent_sc(flat(hi))
        assert exp > F("0.60243")


class TestImprove:
    def test_budget_zero_identity(self):
        w = CspWeights.published().replaced(w_r=F(1, 4))
        assert improve_weights("csp", w, 0) == w

    def test_published_start_stays_optimal(self):
        got = improve_weights("csp", CspWeights.published(), 3)
        assert abs(got.w_r - F(1, 5)) <= F(1, 1000)

    def test_slack_start_descends(self):
        start = CspWeights.published().replaced(w_r=F("0.3"))
        got = improve_weights("csp", start, 4)
        assert got.w_r < start.w_r
        assert check_csp(got).feasible

    def test_deterministic(self):
        start = CspWeights.published().replaced(w_r=F("0.3"))
        assert improve_weights("csp", start, 3) == improve_weights("csp", start, 3)

    def test_infeasible_start_rejected(self):
        with pytest.raises(ValueError):
            improve_weights("csp", all_zero_csp(), 1)
        with pytest.raises(ValueError):
            improve_weights("sc", all_zero_sc(), 1)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            improve_weights("maxsat", CspWeights.published(), 1)

    def test_sc_objective_never_increases(self):
        start = ScWeights.published()
        got = improve_weights("sc", start, 1)
        assert got.w_elt[6] + got.w_set[6] <= start.w_elt[6] + start.w_set[6]
        assert check_sc(got).feasible

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=250))
    def test_feasible_band_descends(self, k):
        start = CspWeights.published().replaced(w_r=F(1, 5) + F(k, 500))
        assert check_csp(start).feasible
        got = improve_weights("csp", start, 2)
        assert got.w_r <= start.w_r
        assert check_csp(got).feasible


class TestReportFormat:
    def test_machine_lines(self):
        text = format_report(check_csp(CspWeights.published()))
        assert text.startswith("system=csp feasible=true\n")
        assert "CONSTRAINT r1" in text
        assert "ok=true" in text

    def test_infeasible_flagged(self):
        text = format_report(check_csp(all_zero_csp()))
        assert "feasible=false" in text
        assert "ok=false" in text

    def test_row_lookup_error(self):
        with pytest.raises(KeyError):
            check_csp(CspWeights.published()).row("nope")
