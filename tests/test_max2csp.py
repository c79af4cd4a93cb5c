import pytest
from hypothesis import given, settings
from strategies import csp_instances

from smc.csp import (
    CspInstance,
    encode_max2sat,
    encode_maxcut,
    evaluate,
    format_csp,
    parse_csp,
    parse_dimacs_2cnf,
    reduce0,
    reduceI,
    reduceII,
    reduceIII,
    zero_instance,
)
from smc.graph import Graph
from smc.oracles import brute_max2csp


class TestEvaluate:
    def test_empty(self):
        inst = zero_instance(2, Graph())
        inst.s_nil = 7
        assert evaluate(inst, {}) == 7

    def test_single_edge_cut(self):
        inst = encode_maxcut(Graph.path(2))
        assert evaluate(inst, {0: 0, 1: 1}) == 1
        assert evaluate(inst, {0: 1, 1: 1}) == 0

    def test_k4_bisection(self):
        inst = encode_maxcut(Graph.complete(4))
        assert evaluate(inst, {0: 0, 1: 0, 2: 1, 3: 1}) == 4

    def test_partial_assignment_rejected(self):
        with pytest.raises(ValueError):
            evaluate(encode_maxcut(Graph.path(2)), {0: 0})


def _reduce(reduction, inst, y):
    """An in-place reduction run on a copy of inst: (child, fill)."""
    child = inst.copy()
    return child, reduction(child, y)


def _filled(fill, phi):
    """phi with the fill's vertex coloured in, phi itself untouched."""
    out = dict(phi)
    fill(out)
    return out


class TestReduce0:
    def test_absorbs_max(self):
        inst = zero_instance(2, Graph([3]))
        inst.s_v[3] = (3, 5)
        child, fill = _reduce(reduce0, inst, 3)
        assert child.s_nil == 5 and child.n == 0
        assert _filled(fill, {}) == {3: 1}

    def test_zero_vector(self):
        inst = zero_instance(2, Graph([0]))
        child, fill = _reduce(reduce0, inst, 0)
        assert child.s_nil == 0
        assert _filled(fill, {})[0] == 0

    def test_wrong_degree(self):
        with pytest.raises(ValueError):
            reduce0(encode_maxcut(Graph.path(2)), 0)


class TestReduceI:
    def test_zero_scores_noop_on_x(self):
        inst = zero_instance(2, Graph.path(2))
        child, _ = _reduce(reduceI, inst, 1)
        assert child.s_v[0] == (0, 0) and child.graph.m == 0

    def test_clause_fold(self):
        # clause (x or y) folded at pendant y: satisfiable whatever x is
        inst = encode_max2sat(2, [(1, 2)])
        child, fill = _reduce(reduceI, inst, 1)
        assert child.s_v[0] == (1, 1)
        assert _filled(fill, {0: 0})[1] == 1  # x false forces y true
        assert _filled(fill, {0: 1})[1] == 0  # x true frees y; color 0 is lex-first

    def test_wrong_degree(self):
        with pytest.raises(ValueError):
            reduceI(encode_maxcut(Graph.cycle(3)), 0)


class TestReduceII:
    def test_zero_path(self):
        inst = zero_instance(2, Graph.path(3))
        child, _ = _reduce(reduceII, inst, 1)
        assert child.graph.edges() == [(0, 2)]
        assert child.s_e[(0, 2)] == (0, 0, 0, 0)

    def test_triangle_merges_parallel(self):
        inst = encode_maxcut(Graph.complete(3))
        child, fill = _reduce(reduceII, inst, 1)
        assert child.graph.edges() == [(0, 2)]  # stayed simple
        sol = brute_max2csp(child)
        assert sol.score == 2  # triangle max cut preserved
        assert evaluate(inst, _filled(fill, sol.assignment)) == 2

    def test_wrong_degree(self):
        with pytest.raises(ValueError):
            reduceII(encode_maxcut(Graph.complete(4)), 0)


class TestReduceIII:
    def test_k4_branches(self):
        inst = encode_maxcut(Graph.complete(4))
        branches = reduceIII(inst, 0)
        assert len(branches) == 2
        best = None
        for color, child in enumerate(branches):
            assert child.n == 3 and child.graph.m == 3
            sol = brute_max2csp(child)
            assert evaluate(inst, {**sol.assignment, 0: color}) == sol.score
            best = sol.score if best is None else max(best, sol.score)
        assert best == 4

    def test_zero_scores_plain_deletion(self):
        inst = zero_instance(3, Graph.complete(4))
        branches = reduceIII(inst, 2)
        assert len(branches) == 3
        for child in branches:
            assert child.s_nil == 0
            assert all(vec == (0, 0, 0) for vec in child.s_v.values())

    def test_wrong_degree(self):
        with pytest.raises(ValueError):
            reduceIII(zero_instance(2, Graph.path(3)), 1)


def _first_of_degree(inst: CspInstance, d: int) -> int | None:
    return next((v for v in inst.graph.vertices() if inst.graph.degree(v) == d), None)


class TestReductionSoundness:
    """Each reduction preserves the optimum, and its fill (reductions
    0/I/II) or the branch colour (reduction III) extends witnesses."""

    @settings(max_examples=80)
    @given(csp_instances(max_n=6))
    def test_reduce0(self, inst):
        y = _first_of_degree(inst, 0)
        if y is None:
            return
        self._check(inst, *_reduce(reduce0, inst, y))

    @settings(max_examples=80)
    @given(csp_instances(max_n=6))
    def test_reduceI(self, inst):
        y = _first_of_degree(inst, 1)
        if y is None:
            return
        self._check(inst, *_reduce(reduceI, inst, y))

    @settings(max_examples=80)
    @given(csp_instances(max_n=6))
    def test_reduceII(self, inst):
        y = _first_of_degree(inst, 2)
        if y is None:
            return
        self._check(inst, *_reduce(reduceII, inst, y))

    @settings(max_examples=60)
    @given(csp_instances(max_n=6))
    def test_reduceIII(self, inst):
        y = next(
            (v for v in inst.graph.vertices() if inst.graph.degree(v) >= 3), None
        )
        if y is None:
            return
        parent_opt = brute_max2csp(inst).score
        best = None
        for color, child in enumerate(reduceIII(inst, y)):
            sol = brute_max2csp(child)
            assert evaluate(inst, {**sol.assignment, y: color}) == sol.score
            best = sol.score if best is None else max(best, sol.score)
        assert best == parent_opt

    @staticmethod
    def _check(inst, child, fill):
        child.check()
        parent_opt = brute_max2csp(inst).score
        sol = brute_max2csp(child)
        assert sol.score == parent_opt
        assert evaluate(inst, _filled(fill, sol.assignment)) == parent_opt


class TestReductionsLeaveArgument:
    """reduceIII branches on fresh copies: one that forgot its copy would
    corrupt the parent's instance and, through it, its siblings and the
    reported witness."""

    @settings(max_examples=80)
    @given(csp_instances(max_n=7))
    def test_argument_unchanged(self, inst):
        before = inst.copy()
        for y in inst.graph.vertices():
            if inst.graph.degree(y) >= 3:
                children = reduceIII(inst, y)
                assert inst == before
                assert all(set(child.graph.vertices()) == set(inst.graph.vertices()) - {y}
                           for child in children)


class TestEncodings:
    def test_single_edge(self):
        assert brute_max2csp(encode_maxcut(Graph.path(2))).score == 1

    def test_triangle(self):
        assert brute_max2csp(encode_maxcut(Graph.cycle(3))).score == 2

    def test_max2sat_example(self):
        # {(x1 v x2), (-x1 v x2), (-x2)} -> 2 satisfiable
        inst = encode_max2sat(2, [(1, 2), (-1, 2), (-2,)])
        assert brute_max2csp(inst).score == 2

    def test_max2sat_tautology(self):
        inst = encode_max2sat(1, [(1, -1)])
        assert inst.s_nil == 1 and inst.graph.m == 0

    def test_max2sat_repeated_literal(self):
        inst = encode_max2sat(1, [(1, 1)])
        assert inst.s_v[0] == (0, 1)

    def test_max2sat_width_guard(self):
        with pytest.raises(ValueError):
            encode_max2sat(3, [(1, 2, 3)])


class TestTextFormats:
    def test_round_trip(self):
        inst = encode_maxcut(Graph.complete(3))
        inst.s_nil = -2
        inst.s_v[1] = (4, -1)
        text = format_csp(inst)
        again = parse_csp(text)
        assert format_csp(again) == text
        assert brute_max2csp(again).score == brute_max2csp(inst).score

    def test_parse_reorients_edges(self):
        text = "max2csp 2 2 1\nnil 0\nv 0 0 0\nv 1 0 0\ne 1 0 1 2 3 4\n"
        inst = parse_csp(text)
        # row-major over (color_1, color_0) transposed into (color_0, color_1)
        assert inst.s_e[(0, 1)] == (1, 3, 2, 4)

    @pytest.mark.parametrize(
        "bad",
        [
            "max2csp 1 1 0\nnil 0\nv 0 0\n",
            "max2csp 2 2 1\nnil 0\nv 0 0 0\nv 1 0 0\n",
            "max2csp 2 2 0\nnil 0\nv 0 0 0\nv 5 0 0\n",
            "max2csp 2 2 1\nnil 0\nv 0 0 0\nv 1 0 0\ne 0 0 1 1 1 1\n",
            "max2csp 2 1 0\nnil 0\nv 0 0\n",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_csp(bad)

    def test_dimacs(self):
        n, clauses = parse_dimacs_2cnf("c comment\np cnf 2 3\n1 2 0\n-1 2 0\n-2 0\n")
        assert n == 2 and clauses == [(1, 2), (-1, 2), (-2,)]
        assert brute_max2csp(encode_max2sat(n, clauses)).score == 2

    def test_dimacs_width_guard(self):
        with pytest.raises(ValueError):
            parse_dimacs_2cnf("p cnf 3 1\n1 2 3 0\n")
