"""Tests for where UNSAT verdicts come from.

Every UNSAT verdict is derived by a solver layer (simplification, interval
propagation or the CDCL backend) or answered by an exact cache hit on the
same canonical system.  Nothing answers a *superset* of a known UNSAT
system without solving it, and no result, store record or telemetry key
carries an UNSAT core.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import builder as b
from repro.smt.cache import SolverCache
from repro.smt.cachestore import FORMAT_VERSION, CacheStore
from repro.smt.sampler import SamplerConfig
from repro.smt.sat import SatResult
from repro.smt.solver import TELEMETRY, PortfolioSolver, SolverConfig, SolverResult

WIDTH = 16


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


def _contradictory_chain(tag=""):
    """β plus sanity checks whose tail only the complete backend refutes.

    The alignment check forces the low three bits of ``w`` to ``101`` while
    the parity check forces the lowest bit to ``0`` — invisible to interval
    propagation, so the UNSAT proof comes from the CDCL.
    """
    w = b.bv_var(f"cw{tag}", WIDTH)
    h = b.bv_var(f"ch{tag}", WIDTH)
    beta = b.ugt(
        b.mul(b.zext(w, 32), b.zext(h, 32)), b.bv_const(0x00FFFFFF, 32)
    )
    align = b.eq(b.bvand(w, b.bv_const(7, WIDTH)), b.bv_const(5, WIDTH))
    hmask = b.eq(b.bvand(h, b.bv_const(3, WIDTH)), b.bv_const(2, WIDTH))
    parity = b.eq(b.bvand(w, b.bv_const(1, WIDTH)), b.bv_const(0, WIDTH))
    return beta, align, hmask, parity


def _bounds_clash(tag=""):
    x = b.bv_var(f"bc{tag}", WIDTH)
    return x, [b.ult(x, b.bv_const(5, WIDTH)), b.ugt(x, b.bv_const(9, WIDTH))]


class TestUnsatDerivation:
    def test_interval_propagation_refutes_contradictory_bounds(self):
        _x, system = _bounds_clash("iv")
        result = PortfolioSolver(SolverConfig()).check(system)
        assert result.is_unsat
        assert result.reason == "interval propagation"

    def test_cdcl_refutes_a_parity_clash_in_a_session(self):
        beta, align, hmask, parity = _contradictory_chain("s")
        session = PortfolioSolver(_stress_config()).open_session()
        for constraint in (beta, align, hmask):
            session.push(constraint)
        assert session.check().is_sat
        session.push(parity)
        result = session.check()
        assert result.is_unsat
        assert result.reason == "bitblast"
        # Popping the clashing check restores satisfiability.
        session.pop()
        assert session.check().is_sat

    def test_the_clashing_pair_alone_is_unsat(self):
        _beta, align, _hmask, parity = _contradictory_chain("p")
        solver = PortfolioSolver(_stress_config())
        assert solver.check([align, parity]).is_unsat
        assert solver.check([align]).is_sat
        assert solver.check([parity]).is_sat

    @pytest.mark.parametrize("decomposition", [True, False], ids=["split", "whole"])
    def test_an_unsat_component_decides_the_query(self, decomposition):
        _x, contradiction = _bounds_clash(f"comp{decomposition}")
        y = b.bv_var(f"cy{decomposition}", WIDTH)
        config = SolverConfig(enable_decomposition=decomposition)
        result = PortfolioSolver(config, cache=SolverCache()).check(
            [b.ult(y, b.bv_const(3, WIDTH))] + contradiction
        )
        assert result.is_unsat

    @given(
        bound=st.integers(min_value=1, max_value=2**WIDTH - 2),
        extra=st.integers(min_value=0, max_value=2**WIDTH - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_session_and_fresh_agree_on_clashing_bounds(self, bound, extra):
        x = b.bv_var("prop_x", WIDTH)
        below = b.ult(x, b.bv_const(bound, WIDTH))
        above = b.ugt(x, b.bv_const(max(bound, extra), WIDTH))
        session = PortfolioSolver(SolverConfig()).open_session()
        session.push(below)
        session.push(above)
        assert session.check().is_unsat
        assert PortfolioSolver(SolverConfig()).check([below, above]).is_unsat
        session.pop()
        assert session.check().is_sat


class TestNoSubsumption:
    def test_superset_of_a_cached_unsat_system_is_solved_again(self):
        cache = SolverCache()
        solver = PortfolioSolver(SolverConfig(), cache=cache)
        x, system = _bounds_clash("sup")
        assert solver.check(system).is_unsat
        misses = cache.stats.misses
        result = solver.check(system + [b.ne(x, b.bv_const(7, WIDTH))])
        assert result.is_unsat
        # A different canonical system: a whole-query miss, decided by a
        # solver layer rather than read off the earlier verdict.
        assert cache.stats.misses == misses + 1
        assert result.reason == "interval propagation"

    def test_store_holds_only_query_and_component_records(self, tmp_path):
        config = SolverConfig()
        cache = SolverCache()
        solver = PortfolioSolver(config, cache=cache)
        x, system = _bounds_clash("st")
        y = b.bv_var("sty", WIDTH)
        assert solver.check(system + [b.ult(y, b.bv_const(3, WIDTH))]).is_unsat
        CacheStore(str(tmp_path)).save(cache, config.fingerprint())
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["version"] == FORMAT_VERSION == 6
        assert set(meta["kinds"]) <= {"query", "component"}

        warm_cache = SolverCache()
        CacheStore(str(tmp_path)).load(warm_cache, config.fingerprint())
        superset = system + [b.ne(x, b.bv_const(7, WIDTH))]
        result = PortfolioSolver(config, cache=warm_cache).check(superset)
        assert result.is_unsat
        assert result.reason != "cache"


class TestNoCoreSurface:
    @pytest.mark.parametrize("knob", ["enable_unsat_cores", "reuse_sessions"])
    def test_removed_solver_knobs_are_rejected(self, knob):
        with pytest.raises(TypeError):
            SolverConfig(**{knob: False})

    def test_results_carry_no_core(self):
        assert "unsat_core" not in {f.name for f in dataclasses.fields(SolverResult)}
        assert "core" not in {f.name for f in dataclasses.fields(SatResult)}

    def test_telemetry_has_no_core_or_reuse_counters(self):
        snapshot = TELEMETRY.snapshot()
        for key in ("cores_extracted", "core_pruned_candidates", "sessions_reused"):
            assert key not in snapshot
