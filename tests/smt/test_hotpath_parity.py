"""Differential parity for the flattened solving hot path.

The PR that flattened the hot path (array CDCL core, compiled term
evaluation, structurally-hashed Tseitin gates) kept the legacy
implementations alive — :class:`ReferenceCDCLSolver`, the recursive
interpreter behind ``USE_COMPILED``, and the unhashed encoder behind
``STRUCTURAL_HASHING`` — precisely so these tests can hold old and new
to the same verdicts on generated inputs.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.smt import builder as b
from repro.smt import evalcompile, evalmodel
from repro.smt.bitblast import solve_terms
from repro.smt.cnf import CNF
from repro.smt.evalmodel import Model, evaluate, satisfies
from repro.smt.hotpath import legacy_hot_path
from repro.smt.sat import CDCLSolver, SatStatus
from repro.smt.sat_reference import ReferenceCDCLSolver
from repro.smt.solver import TELEMETRY, PortfolioSolver, SolverConfig

WIDTH = 8
VALUE = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


# ----------------------------------------------------------------------
# Flat CDCL core vs the reference object-graph core
# ----------------------------------------------------------------------
@st.composite
def random_cnfs(draw):
    num_vars = draw(st.integers(min_value=1, max_value=10))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(
        st.lists(
            st.lists(literal, min_size=1, max_size=4), min_size=0, max_size=24
        )
    )
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


@settings(max_examples=200, deadline=None)
@given(random_cnfs())
def test_flat_core_matches_the_reference_core(cnf):
    flat = CDCLSolver(cnf).solve()
    reference = ReferenceCDCLSolver(cnf).solve()
    assert flat.status == reference.status
    if flat.status == SatStatus.SAT:
        for clause in cnf.clauses:
            assert any(
                flat.assignment.get(abs(lit), False) == (lit > 0)
                for lit in clause
            )


@settings(max_examples=60, deadline=None)
@given(random_cnfs(), st.lists(st.integers(min_value=1, max_value=4), max_size=3))
def test_flat_core_matches_the_reference_under_assumptions(cnf, raw_assumptions):
    assumptions = [
        lit if i % 2 == 0 else -lit
        for i, lit in enumerate(raw_assumptions)
        if lit <= cnf.num_vars
    ]
    flat = CDCLSolver(cnf).solve(assumptions=assumptions)
    reference = ReferenceCDCLSolver(cnf).solve(assumptions=assumptions)
    assert flat.status == reference.status
    if flat.status == SatStatus.SAT:
        # The model honours every assumption, not just the clauses.
        assert all(
            flat.assignment.get(abs(lit), False) == (lit > 0) for lit in assumptions
        )


# ----------------------------------------------------------------------
# Compiled term evaluation vs the recursive interpreter
# ----------------------------------------------------------------------
def _leaf_terms():
    return st.one_of(
        VALUE.map(lambda v: b.bv_const(v, WIDTH)),
        st.sampled_from(["x", "y", "z"]).map(lambda n: b.bv_var(n, WIDTH)),
    )


@st.composite
def bv_terms(draw, max_depth=4):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    if depth == 0:
        return draw(_leaf_terms())
    shape = draw(st.integers(min_value=0, max_value=2))
    if shape == 0:
        return draw(_leaf_terms())
    if shape == 1:
        op = draw(st.sampled_from([b.neg, b.bvnot]))
        return op(draw(bv_terms(max_depth=depth - 1)))
    op = draw(
        st.sampled_from(
            [
                b.add,
                b.sub,
                b.mul,
                b.udiv,
                b.urem,
                b.bvand,
                b.bvor,
                b.bvxor,
                b.shl,
                b.lshr,
                b.ashr,
            ]
        )
    )
    return op(draw(bv_terms(max_depth=depth - 1)), draw(bv_terms(max_depth=depth - 1)))


@settings(max_examples=200, deadline=None)
@given(bv_terms(), VALUE, VALUE, VALUE)
def test_compiled_evaluation_matches_the_interpreter(term, x, y, z):
    model = Model({"x": x, "y": y, "z": z})
    compiled = evaluate(term, model)
    saved = evalmodel.USE_COMPILED
    evalmodel.USE_COMPILED = False
    try:
        interpreted = evaluate(term, model)
    finally:
        evalmodel.USE_COMPILED = saved
    assert compiled == interpreted


def test_compiled_evaluation_reports_unassigned_variables_identically():
    term = b.add(b.bv_var("missing", WIDTH), b.bv_const(1, WIDTH))
    errors = []
    for use_compiled in (True, False):
        saved = evalmodel.USE_COMPILED
        evalmodel.USE_COMPILED = use_compiled
        try:
            evaluate(term, Model({}))
        except evalmodel.EvaluationError as exc:
            errors.append(str(exc))
        finally:
            evalmodel.USE_COMPILED = saved
    assert len(errors) == 2
    assert errors[0] == errors[1]


def test_bool_terms_evaluate_identically_on_both_paths():
    # Whether or not the compiler can emit this kind (compiled_evaluator
    # caches a None sentinel when it cannot), evaluate() must answer — and
    # answer the same as the interpreter.
    term = b.eq(b.bv_var("x", WIDTH), b.bv_const(3, WIDTH))
    evalcompile.compiled_evaluator(term)
    compiled_value = evaluate(term, Model({"x": 3}))
    saved = evalmodel.USE_COMPILED
    evalmodel.USE_COMPILED = False
    try:
        interpreted_value = evaluate(term, Model({"x": 3}))
    finally:
        evalmodel.USE_COMPILED = saved
    assert bool(compiled_value) == bool(interpreted_value) is True


# ----------------------------------------------------------------------
# Structurally-hashed encoder vs the unhashed one
# ----------------------------------------------------------------------
def _encoder_systems():
    systems = []
    for variant in range(4):
        w = b.bv_var(f"ew{variant}", 16)
        h = b.bv_var(f"eh{variant}", 16)
        systems.append(
            [
                b.ugt(
                    b.mul(b.zext(w, 32), b.zext(h, 32)),
                    b.bv_const(0x00FFFFFF, 32),
                ),
                b.eq(b.bvand(w, b.bv_const(7, 16)), b.bv_const(5, 16)),
                b.eq(
                    b.bvand(b.add(w, h), b.bv_const(0xFF, 16)),
                    b.bv_const((0x40 + variant) & 0xFF, 16),
                ),
            ]
        )
        x = b.bv_var(f"ex{variant}", 16)
        systems.append(
            [
                b.eq(
                    b.bvand(b.mul(x, x), b.bv_const(31, 16)),
                    b.bv_const((5 + variant * 8) & 31, 16),
                )
            ]
        )
    return systems


def test_hashed_encoder_reaches_the_unhashed_verdicts():
    for system in _encoder_systems():
        hashed_status, hashed_model = solve_terms(system)
        with legacy_hot_path():
            legacy_status, legacy_model = solve_terms(system)
        assert hashed_status == legacy_status
        if hashed_status == SatStatus.SAT:
            assert all(satisfies(term, hashed_model) for term in system)
            assert all(satisfies(term, legacy_model) for term in system)


# ----------------------------------------------------------------------
# The legacy_hot_path switch itself
# ----------------------------------------------------------------------
def test_legacy_hot_path_restores_the_flat_stack():
    from repro.smt import bitblast as bitblast_mod
    from repro.smt import solver as solver_mod

    assert solver_mod.CDCLSolver is CDCLSolver
    assert bitblast_mod.STRUCTURAL_HASHING is True
    assert evalmodel.USE_COMPILED is True
    with legacy_hot_path():
        assert solver_mod.CDCLSolver is ReferenceCDCLSolver
        assert bitblast_mod.CDCLSolver is ReferenceCDCLSolver
        assert bitblast_mod.STRUCTURAL_HASHING is False
        assert evalmodel.USE_COMPILED is False
    assert solver_mod.CDCLSolver is CDCLSolver
    assert bitblast_mod.CDCLSolver is CDCLSolver
    assert bitblast_mod.STRUCTURAL_HASHING is True
    assert evalmodel.USE_COMPILED is True


def test_legacy_hot_path_restores_on_error():
    try:
        with legacy_hot_path():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    from repro.smt import solver as solver_mod

    assert solver_mod.CDCLSolver is CDCLSolver
    assert evalmodel.USE_COMPILED is True


# ----------------------------------------------------------------------
# Propagation-loop telemetry (satellite: solver.propagations counters)
# ----------------------------------------------------------------------
def test_cdcl_bound_solve_records_propagation_counters():
    config = SolverConfig(
        enable_sessions=False,
        enable_decomposition=False,
        heuristic_max_checks=2,
    )
    x = b.bv_var("tc", 16)
    system = [
        b.eq(b.bvand(b.mul(x, x), b.bv_const(31, 16)), b.bv_const(5, 16))
    ]
    TELEMETRY.reset()
    result = PortfolioSolver(config).check(system)
    snapshot = TELEMETRY.snapshot()
    assert result.is_unsat
    assert snapshot["propagations"] > 0
    assert snapshot["sat_decisions"] > 0
    assert snapshot["propagations"] >= snapshot["cdcl_propagations"]
