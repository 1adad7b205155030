"""The complete backend: Tseitin gates, bit-blasting and the CDCL solve.

Layer 5 of the portfolio is a single one-shot ``CDCLSolver`` run over a
freshly blasted CNF.  These tests pin that path directly: the gate
encodings by truth table, the statuses and models the portfolio reports
for queries only the complete backend can decide, its budget and width
limits, how its verdicts reach the cache and the persistent store, and
its agreement with the reference core on the registry's real per-site
target constraints.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import all_applications
from repro.core.fieldmap import FieldMapper
from repro.core.overflow import overflow_constraint
from repro.core.sites import identify_target_sites
from repro.core.target import extract_target_observations
from repro.smt import builder as b
from repro.smt.bitblast import BitBlaster
from repro.smt.cache import SolverCache
from repro.smt.cachestore import CacheStore
from repro.smt.cnf import CNF
from repro.smt.evalmodel import satisfies
from repro.smt.sampler import SamplerConfig
from repro.smt.sat import CDCLSolver, SatStatus
from repro.smt.sat_reference import ReferenceCDCLSolver
from repro.smt.solver import TELEMETRY, PortfolioSolver, SolverConfig

WIDTH = 16
MASK = (1 << WIDTH) - 1


def _stress_config(**overrides):
    """Tiny incomplete-layer budgets: route queries to the CDCL backend."""
    defaults = dict(
        sampler=SamplerConfig(
            random_attempts_per_sample=3,
            hill_climb_steps=2,
            perturbation_attempts=2,
            seed=0,
        ),
        heuristic_max_checks=4,
        bitblast_max_conflicts=100_000,
    )
    defaults.update(overrides)
    return SolverConfig(**defaults)


def _square_residue_system(residue, tag=""):
    """``x*x mod 8 == residue``: squares mod 8 are exactly {0, 1, 4}."""
    x = b.bv_var(f"sq{tag}", WIDTH)
    return [
        b.eq(
            b.bvand(b.mul(x, x), b.bv_const(7, WIDTH)),
            b.bv_const(residue, WIDTH),
        )
    ]


def _hard_residue_system(residue, tag=""):
    """Like :func:`_square_residue_system` but mod 32, which still costs
    the CDCL core several conflicts to refute (squares mod 32 are
    {0, 1, 4, 9, 16, 17, 25})."""
    x = b.bv_var(f"hr{tag}", WIDTH)
    return [
        b.eq(
            b.bvand(b.mul(x, x), b.bv_const(31, WIDTH)),
            b.bv_const(residue, WIDTH),
        )
    ]


def _exact_square_system(root, tag=""):
    """SAT, but only by CDCL: the sampler would have to guess ``root``."""
    x = b.bv_var(f"xs{tag}", WIDTH)
    return [b.eq(b.mul(x, x), b.bv_const((root * root) & MASK, WIDTH))]


def _registry_systems():
    """One target-constraint system per registry site with a size expression."""
    systems = []
    for app in all_applications():
        mapper = FieldMapper(app.format_spec)
        for site in identify_target_sites(app.program, app.seed_input):
            observations = extract_target_observations(
                app.program,
                app.seed_input,
                site,
                field_mapper=mapper,
                max_observations=1,
            )
            if observations and observations[0].size_expression is not None:
                systems.append(
                    [overflow_constraint(observations[0].size_expression)]
                )
    return systems


def _models(cnf):
    """Every satisfying assignment of ``cnf`` by enumeration (tiny CNFs)."""
    found = []
    for bits in itertools.product((False, True), repeat=cnf.num_vars):
        assignment = {var: bits[var - 1] for var in range(1, cnf.num_vars + 1)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        ):
            found.append(assignment)
    return found


# ----------------------------------------------------------------------
# Tseitin gate encodings, checked by truth table
# ----------------------------------------------------------------------
class TestGateEncodings:
    def _gate_table(self, encode, arity):
        """Map each input combination to the forced output value(s)."""
        cnf = CNF()
        inputs = [cnf.new_var() for _ in range(arity)]
        output = cnf.new_var()
        encode(cnf, output, inputs)
        table = {}
        for model in _models(cnf):
            key = tuple(model[var] for var in inputs)
            table.setdefault(key, set()).add(model[output])
        return table

    def test_and_gate(self):
        table = self._gate_table(lambda c, o, i: c.encode_and(o, i), 3)
        assert len(table) == 8
        for key, outputs in table.items():
            assert outputs == {all(key)}

    def test_or_gate(self):
        table = self._gate_table(lambda c, o, i: c.encode_or(o, i), 3)
        assert len(table) == 8
        for key, outputs in table.items():
            assert outputs == {any(key)}

    def test_xor_gate(self):
        table = self._gate_table(lambda c, o, i: c.encode_xor(o, *i), 2)
        assert len(table) == 4
        for (a, c), outputs in table.items():
            assert outputs == {a != c}

    def test_ite_gate(self):
        table = self._gate_table(lambda c, o, i: c.encode_ite(o, *i), 3)
        assert len(table) == 8
        for (cond, then, otherwise), outputs in table.items():
            assert outputs == {then if cond else otherwise}

    def test_iff_forces_equal_values(self):
        cnf = CNF()
        a, c = cnf.new_var(), cnf.new_var()
        cnf.encode_iff(a, c)
        models = _models(cnf)
        assert len(models) == 2
        assert all(model[a] == model[c] for model in models)

    def test_full_adder_adds(self):
        cnf = CNF()
        a, c, cin = cnf.new_var(), cnf.new_var(), cnf.new_var()
        total, carry = cnf.encode_full_adder(a, c, cin)
        seen = set()
        for model in _models(cnf):
            inputs = (model[a], model[c], model[cin])
            seen.add(inputs)
            value = sum(inputs)
            assert model[total] == bool(value & 1)
            assert model[carry] == bool(value & 2)
        assert len(seen) == 8  # every input combination stays satisfiable

    def test_empty_clause_is_unsat_with_an_empty_core(self):
        cnf = CNF()
        x = cnf.new_var()
        cnf.add_clause(())
        result = CDCLSolver(cnf).solve(assumptions=[x])
        assert result.status == SatStatus.UNSAT
        assert not result.core


# ----------------------------------------------------------------------
# CDCL verdicts and models on generated CNFs
# ----------------------------------------------------------------------
@st.composite
def random_cnfs(draw):
    num_vars = draw(st.integers(min_value=1, max_value=8))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(
        st.lists(
            st.lists(literal, min_size=1, max_size=4), min_size=0, max_size=16
        )
    )
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


@settings(max_examples=150, deadline=None)
@given(random_cnfs())
def test_cdcl_verdicts_match_enumeration_on_random_cnfs(cnf):
    result = CDCLSolver(cnf).solve()
    expected = SatStatus.SAT if _models(cnf) else SatStatus.UNSAT
    assert result.status == expected
    if result.status == SatStatus.SAT:
        for clause in cnf.clauses:
            assert any(
                result.assignment.get(abs(lit), False) == (lit > 0)
                for lit in clause
            )


# ----------------------------------------------------------------------
# The portfolio's complete layer
# ----------------------------------------------------------------------
class TestOneShotBackend:
    @pytest.mark.parametrize("residue", [0, 1, 4])
    def test_square_residues_are_sat(self, residue):
        system = _square_residue_system(residue, f"s{residue}")
        result = PortfolioSolver(_stress_config()).check(system)
        assert result.is_sat
        assert all(satisfies(c, result.model) for c in system)

    @pytest.mark.parametrize("residue", [2, 3, 5, 6])
    def test_non_square_residues_are_unsat(self, residue):
        system = _square_residue_system(residue, f"u{residue}")
        result = PortfolioSolver(_stress_config()).check(system)
        assert result.is_unsat

    def test_exact_square_root_is_found_by_bitblasting(self):
        system = _exact_square_system(1234, "root")
        result = PortfolioSolver(_stress_config()).check(system)
        assert result.is_sat
        assert result.reason == "bitblast"
        assert result.model.as_dict()["xsroot"] in (1234, (-1234) & MASK)

    def test_exhausted_conflict_budget_is_unknown(self):
        config = _stress_config(bitblast_max_conflicts=1)
        result = PortfolioSolver(config).check(_hard_residue_system(5, "b1"))
        assert result.is_unknown

    def test_disabled_bitblast_leaves_the_query_undecided(self):
        config = _stress_config(enable_bitblast=False)
        result = PortfolioSolver(config).check(_exact_square_system(1234, "nb"))
        assert result.is_unknown

    def test_terms_wider_than_the_width_limit_are_not_blasted(self):
        config = _stress_config(bitblast_max_width=8)
        TELEMETRY.reset()
        result = PortfolioSolver(config).check(_exact_square_system(1234, "w8"))
        assert result.is_unknown
        assert TELEMETRY.snapshot()["bitblast_calls"] == 0

    def test_bitblast_records_its_effort(self):
        TELEMETRY.reset()
        result = PortfolioSolver(_stress_config()).check(
            _hard_residue_system(5, "tel")
        )
        assert result.is_unsat
        snapshot = TELEMETRY.snapshot()
        assert snapshot["bitblast_calls"] == 1
        assert snapshot["cdcl_conflicts"] >= 1
        assert snapshot["propagations"] == snapshot["cdcl_propagations"] > 0

    def test_one_shot_and_session_statuses_agree(self):
        systems = [
            _exact_square_system(1234, "p1"),
            _square_residue_system(3, "p3"),
            _exact_square_system(777, "p2"),
            _hard_residue_system(5, "p5"),
        ]
        solver = PortfolioSolver(_stress_config())
        fresh = [solver.check(system).status for system in systems]
        session = solver.open_session()
        incremental = []
        for system in systems:
            session.push(*system)
            incremental.append(session.check().status)
            session.pop()
        assert incremental == fresh


# ----------------------------------------------------------------------
# Complete-backend verdicts in the cache and the persistent store
# ----------------------------------------------------------------------
class TestBackendVerdictPersistence:
    def test_warm_store_answers_without_blasting(self, tmp_path):
        config = _stress_config()
        fingerprint = config.fingerprint()
        system = _exact_square_system(1234, "st")
        cold_cache = SolverCache()
        cold = PortfolioSolver(config, cache=cold_cache).check(system)
        assert cold.is_sat
        store = CacheStore(str(tmp_path))
        assert store.save(cold_cache, fingerprint) > 0

        warm_cache = SolverCache()
        assert store.load(warm_cache, fingerprint) > 0
        TELEMETRY.reset()
        warm = PortfolioSolver(config, cache=warm_cache).check(system)
        assert warm.status == cold.status
        assert all(satisfies(c, warm.model) for c in system)
        assert TELEMETRY.snapshot()["bitblast_calls"] == 0

    def test_budget_exhausted_verdicts_are_not_persisted(self, tmp_path):
        config = _stress_config(bitblast_max_conflicts=1)
        cache = SolverCache()
        result = PortfolioSolver(config, cache=cache).check(
            _hard_residue_system(5, "uk")
        )
        assert result.is_unknown
        store = CacheStore(str(tmp_path))
        assert store.save(cache, config.fingerprint()) == 0


# ----------------------------------------------------------------------
# Registry target constraints through the blaster
# ----------------------------------------------------------------------
class TestBlastedRegistry:
    def test_registry_systems_resolve_like_the_reference_core(self):
        systems = _registry_systems()
        assert systems  # the registry always exposes sized allocation sites
        for system in systems:
            blaster = BitBlaster()
            blaster.assert_all(system)
            result = CDCLSolver(blaster.cnf).solve()
            reference = ReferenceCDCLSolver(blaster.cnf).solve()
            assert result.status == reference.status
            if result.status == SatStatus.SAT:
                model = blaster.extract_model(result)
                assert all(satisfies(term, model) for term in system)

    def test_extract_model_decodes_the_variable_bits(self):
        blaster = BitBlaster()
        blaster.assert_all(_exact_square_system(1234, "dec"))
        result = CDCLSolver(blaster.cnf).solve()
        assert result.status == SatStatus.SAT
        bits = blaster.variable_bits()["xsdec"]
        assert len(bits) == WIDTH
        decoded = sum(
            1 << position
            for position, literal in enumerate(bits)
            if result.assignment.get(abs(literal), False) == (literal > 0)
        )
        assert blaster.extract_model(result).as_dict() == {"xsdec": decoded}

    def test_blasting_and_solving_are_deterministic(self):
        def run():
            blaster = BitBlaster()
            blaster.assert_all(_exact_square_system(777, "det"))
            result = CDCLSolver(blaster.cnf).solve()
            return tuple(blaster.cnf.clauses), blaster.extract_model(result)

        first_clauses, first_model = run()
        second_clauses, second_model = run()
        assert first_clauses == second_clauses
        assert first_model.as_dict() == second_model.as_dict()
