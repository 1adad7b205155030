"""Property-based tests for the SMT substrate (hypothesis).

Core invariants:

* the simplifier preserves the semantics of arbitrary terms;
* interval analysis is sound (the concrete value always lies in the forward
  interval);
* the bit-blasting backend agrees with the term evaluator on small widths;
* machine arithmetic in the evaluator matches Python big-int arithmetic
  reduced modulo the width;
* the portfolio decides conjunctions over independent variable groups
  exactly (SAT iff every group is, with a model satisfying every conjunct).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import builder as b
from repro.smt.bitblast import solve_terms
from repro.smt.evalmodel import evaluate, satisfies
from repro.smt.interval import Interval, interval_of, propagate_intervals
from repro.smt.sat import SatStatus
from repro.smt.simplify import simplify
from repro.smt.solver import PortfolioSolver
from repro.smt.terms import Term, TermKind, to_signed

WIDTH = 8
VALUE = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


def _leaf_terms():
    return st.one_of(
        VALUE.map(lambda v: b.bv_const(v, WIDTH)),
        st.sampled_from(["x", "y", "z"]).map(lambda n: b.bv_var(n, WIDTH)),
    )


def _binary_ops():
    return st.sampled_from(
        [b.add, b.sub, b.mul, b.udiv, b.urem, b.bvand, b.bvor, b.bvxor, b.shl, b.lshr]
    )


def _unary_ops():
    return st.sampled_from([b.neg, b.bvnot])


@st.composite
def bv_terms(draw, max_depth=4):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    if depth == 0:
        return draw(_leaf_terms())
    shape = draw(st.integers(min_value=0, max_value=2))
    if shape == 0:
        return draw(_leaf_terms())
    if shape == 1:
        op = draw(_unary_ops())
        return op(draw(bv_terms(max_depth=depth - 1)))
    op = draw(_binary_ops())
    return op(draw(bv_terms(max_depth=depth - 1)), draw(bv_terms(max_depth=depth - 1)))


MODELS = st.fixed_dictionaries({"x": VALUE, "y": VALUE, "z": VALUE})


class TestSimplifierSoundness:
    @given(term=bv_terms(), model=MODELS)
    @settings(max_examples=200, deadline=None)
    def test_simplify_preserves_value(self, term, model):
        assert evaluate(simplify(term), model) == evaluate(term, model)

    @given(term=bv_terms(), model=MODELS)
    @settings(max_examples=100, deadline=None)
    def test_simplify_is_idempotent_semantically(self, term, model):
        once = simplify(term)
        twice = simplify(once)
        assert evaluate(twice, model) == evaluate(once, model)

    @given(left=bv_terms(), right=bv_terms(), model=MODELS)
    @settings(max_examples=100, deadline=None)
    def test_comparison_simplification_preserves_truth(self, left, right, model):
        for comparison in (b.ult, b.ule, b.eq, b.ne, b.slt, b.sge):
            term = comparison(left, right)
            assert evaluate(simplify(term), model) == evaluate(term, model)


class TestIntervalSoundness:
    @given(term=bv_terms(), model=MODELS)
    @settings(max_examples=200, deadline=None)
    def test_concrete_value_lies_in_forward_interval(self, term, model):
        bounds = {name: Interval.point(value) for name, value in model.items()}
        interval = interval_of(term, bounds)
        value = evaluate(term, model)
        assert not interval.is_empty
        assert interval.lo <= value <= interval.hi

    @given(term=bv_terms(), model=MODELS, limit=VALUE)
    @settings(max_examples=100, deadline=None)
    def test_propagation_never_excludes_a_real_model(self, term, model, limit):
        constraint = b.ule(term, b.bv_const(limit, WIDTH))
        if evaluate(constraint, model) != 1:
            return
        feasible, bounds = propagate_intervals(
            [constraint], {name: WIDTH for name in model}
        )
        assert feasible
        for name, value in model.items():
            assert value in bounds[name]


class TestMachineArithmeticAgreement:
    @given(x=VALUE, y=VALUE)
    @settings(max_examples=200, deadline=None)
    def test_add_matches_python_mod(self, x, y):
        term = b.add(b.bv_var("x", WIDTH), b.bv_var("y", WIDTH))
        assert evaluate(term, {"x": x, "y": y}) == (x + y) % (1 << WIDTH)

    @given(x=VALUE, y=VALUE)
    @settings(max_examples=200, deadline=None)
    def test_mul_matches_python_mod(self, x, y):
        term = b.mul(b.bv_var("x", WIDTH), b.bv_var("y", WIDTH))
        assert evaluate(term, {"x": x, "y": y}) == (x * y) % (1 << WIDTH)

    @given(x=VALUE)
    @settings(max_examples=100, deadline=None)
    def test_signed_interpretation_roundtrip(self, x):
        signed = to_signed(x, WIDTH)
        assert signed % (1 << WIDTH) == x


class TestBitBlastAgreement:
    @given(term=bv_terms(max_depth=3), model=MODELS)
    @settings(max_examples=40, deadline=None)
    def test_bitblast_accepts_the_evaluator_model(self, term, model):
        """If the evaluator says a point satisfies term == value, the CDCL
        backend must agree that the constraint is satisfiable."""
        value = evaluate(term, model)
        constraints = [
            b.eq(term, b.bv_const(value, WIDTH)),
            b.eq(b.bv_var("x", WIDTH), b.bv_const(model["x"], WIDTH)),
            b.eq(b.bv_var("y", WIDTH), b.bv_const(model["y"], WIDTH)),
            b.eq(b.bv_var("z", WIDTH), b.bv_const(model["z"], WIDTH)),
        ]
        status, solved = solve_terms(constraints)
        assert status == SatStatus.SAT
        assert evaluate(term, solved) == value

    @given(model=MODELS, limit=VALUE)
    @settings(max_examples=30, deadline=None)
    def test_bitblast_models_satisfy_original_constraints(self, model, limit):
        x = b.bv_var("x", WIDTH)
        y = b.bv_var("y", WIDTH)
        constraint = b.ugt(b.add(b.mul(x, y), x), b.bv_const(limit, WIDTH))
        status, solved = solve_terms([constraint])
        if status == SatStatus.SAT:
            assert evaluate(constraint, solved) == 1


@st.composite
def independent_pool_systems(draw):
    """Comparisons against constants over three variables that share no
    conjunct, grouped by variable."""
    comparisons = st.sampled_from([b.ult, b.ule, b.eq, b.ne, b.ugt, b.uge])
    pools = {}
    for name in ("x", "y", "z"):
        count = draw(st.integers(min_value=0, max_value=2))
        pools[name] = [
            draw(comparisons)(b.bv_var(name, WIDTH), b.bv_const(draw(VALUE), WIDTH))
            for _ in range(count)
        ]
    return pools


class TestIndependentGroups:
    @given(pools=independent_pool_systems())
    @settings(max_examples=50, deadline=None)
    def test_status_matches_per_variable_enumeration(self, pools):
        """The conjunction is SAT iff each variable's own conjuncts are
        (checked by enumerating all 2^8 values), and a SAT model, with
        unconstrained variables read as 0, satisfies every conjunct."""
        conjuncts = [c for group in pools.values() for c in group]
        expected_sat = all(
            any(all(satisfies(c, {name: value}) for c in group) for value in range(1 << WIDTH))
            for name, group in pools.items()
        )
        result = PortfolioSolver().check(conjuncts)
        assert result.is_sat == expected_sat
        assert result.is_unsat == (not expected_sat)
        if result.is_sat:
            model = {name: result.model.get(name, 0) for name in pools}
            assert all(satisfies(c, model) for c in conjuncts)
