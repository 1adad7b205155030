"""Tests for the goal-directed enforcement loop and the Diode engine on a
small synthetic application (fast), exercising every termination mode."""

import dataclasses

import pytest

from repro.apps.appbase import Application, SiteExpectation
from repro.core.detection import ErrorDetector
from repro.core.enforcement import (
    EnforcementConfig,
    EnforcementOutcome,
    GoalDirectedEnforcer,
)
from repro.core.engine import Diode, DiodeConfig
from repro.core.fieldmap import FieldMapper
from repro.core.inputs import InputGenerator
from repro.core.report import SiteClassification, classification_from_enforcement
from repro.core.sites import identify_target_sites
from repro.core.target import extract_target_observations
from repro.formats.fields import Endianness, FieldKind, FieldSpec
from repro.formats.spec import FormatSpec
from repro.lang.program import Program
from repro.smt.cache import SolverCache
from repro.smt.solver import PortfolioSolver, SolverStatus

# A miniature application with one site of each classification:
#  - guarded.c@1   : exposed only after enforcing the two sanity checks
#  - open.c@2      : exposed immediately (no checks)
#  - capped.c@3    : protected by the sanity checks (cannot overflow below caps)
#  - narrow.c@4    : target constraint unsatisfiable (16-bit quantity * 4)
MINI_SOURCE = """
proc be32(o) {
  v = (input(o) << 24) | (input(o + 1) << 16) | (input(o + 2) << 8) | input(o + 3);
  return v;
}

proc main() {
  count = be32(4);
  unit  = be32(8);
  small = (input(12) << 8) | input(13);

  open_buf = alloc(count * unit) @ "open.c@2";

  if (count > 100000) { halt "count too large"; }
  if (unit > 100000) { halt "unit too large"; }

  guarded_buf = alloc(count * unit * 64) @ "guarded.c@1";
  capped_buf  = alloc(count * 8 + unit) @ "capped.c@3";
  narrow_buf  = alloc(small * 4) @ "narrow.c@4";

  guarded_buf[count * unit * 64 - 1] = 1;
  probe = guarded_buf[(count - 1) * unit * 64];
}
"""

MINI_SPEC = FormatSpec(
    "mini",
    [
        FieldSpec("/magic", 0, 4, FieldKind.MAGIC, mutable=False),
        FieldSpec("/count", 4, 4, FieldKind.UINT, Endianness.BIG),
        FieldSpec("/unit", 8, 4, FieldKind.UINT, Endianness.BIG),
        FieldSpec("/small", 12, 2, FieldKind.UINT, Endianness.BIG),
    ],
)


def _mini_seed(count=20, unit=16, small=9) -> bytes:
    return (
        b"MINI"
        + count.to_bytes(4, "big")
        + unit.to_bytes(4, "big")
        + small.to_bytes(2, "big")
        + bytes(2)
    )


@pytest.fixture(scope="module")
def mini_app() -> Application:
    program = Program.from_source(MINI_SOURCE, name="mini")
    return Application(
        name="Mini",
        program=program,
        format_spec=MINI_SPEC,
        seed_input=_mini_seed(),
        expectations=[
            SiteExpectation("open.c@2", "exposed", enforced_branches=0),
            SiteExpectation("guarded.c@1", "exposed", enforced_branches=2),
            SiteExpectation("capped.c@3", "prevented"),
            SiteExpectation("narrow.c@4", "unsatisfiable"),
        ],
    )


def _observation(app: Application, tag: str):
    sites = identify_target_sites(app.program, app.seed_input)
    site = next(s for s in sites if s.site_tag == tag)
    mapper = FieldMapper(app.format_spec)
    return extract_target_observations(
        app.program, app.seed_input, site, field_mapper=mapper
    )[0]


def _enforcer(
    app: Application,
    config: EnforcementConfig | None = None,
    cache: SolverCache | None = None,
) -> GoalDirectedEnforcer:
    return GoalDirectedEnforcer(
        PortfolioSolver(cache=cache),
        InputGenerator(app.seed_input, app.format_spec),
        ErrorDetector(app.program, app.seed_input),
        config,
    )


def _run_site(app: Application, tag: str, config: EnforcementConfig | None = None):
    return _enforcer(app, config).run(_observation(app, tag))


class TestEnforcementOutcomes:
    def test_open_site_triggers_without_enforcement(self, mini_app):
        result = _run_site(mini_app, "open.c@2")
        assert result.outcome is EnforcementOutcome.OVERFLOW_TRIGGERED
        assert result.enforced_count == 0
        assert result.triggering_input is not None

    def test_guarded_site_requires_enforcement(self, mini_app):
        result = _run_site(mini_app, "guarded.c@1")
        assert result.outcome is EnforcementOutcome.OVERFLOW_TRIGGERED
        assert 1 <= result.enforced_count <= 3
        assert result.relevant_branch_count >= result.enforced_count
        # Every enforced branch is one of the two sanity checks.
        assert result.evaluation is not None and result.evaluation.triggers_overflow

    def test_capped_site_is_prevented(self, mini_app):
        result = _run_site(mini_app, "capped.c@3")
        assert result.outcome in (
            EnforcementOutcome.CONSTRAINTS_UNSATISFIABLE,
            EnforcementOutcome.SEED_PATH_EXHAUSTED,
        )
        assert not result.found_overflow

    def test_narrow_site_target_unsatisfiable(self, mini_app):
        result = _run_site(mini_app, "narrow.c@4")
        assert result.outcome is EnforcementOutcome.TARGET_UNSATISFIABLE

    def test_triggering_input_is_well_formed(self, mini_app):
        result = _run_site(mini_app, "guarded.c@1")
        data = result.triggering_input
        assert data[:4] == b"MINI"
        assert len(data) == len(mini_app.seed_input)

    def test_steps_are_recorded(self, mini_app):
        result = _run_site(mini_app, "guarded.c@1")
        assert result.steps
        assert result.steps[0].iteration == 0
        assert result.steps[-1].triggered

    def test_classification_mapping(self, mini_app):
        exposed = _run_site(mini_app, "open.c@2")
        unsat = _run_site(mini_app, "narrow.c@4")
        prevented = _run_site(mini_app, "capped.c@3")
        assert classification_from_enforcement(exposed) is SiteClassification.OVERFLOW_EXPOSED
        assert (
            classification_from_enforcement(unsat)
            is SiteClassification.TARGET_UNSATISFIABLE
        )
        assert (
            classification_from_enforcement(prevented)
            is SiteClassification.SANITY_PREVENTED
        )

    def test_iteration_limit_respected(self, mini_app):
        config = EnforcementConfig(max_iterations=0)
        result = _run_site(mini_app, "guarded.c@1", config)
        assert result.outcome in (
            EnforcementOutcome.ITERATION_LIMIT,
            EnforcementOutcome.OVERFLOW_TRIGGERED,  # solved before any enforcement
        )

    def test_ablation_reverse_order_still_terminates(self, mini_app):
        config = EnforcementConfig(flip_selection="last")
        result = _run_site(mini_app, "guarded.c@1", config)
        assert result.outcome in (
            EnforcementOutcome.OVERFLOW_TRIGGERED,
            EnforcementOutcome.CONSTRAINTS_UNSATISFIABLE,
            EnforcementOutcome.ITERATION_LIMIT,
        )

    def test_ablation_without_relevance_filter(self, mini_app):
        config = EnforcementConfig(filter_relevant=False)
        result = _run_site(mini_app, "guarded.c@1", config)
        assert result.relevant_branch_count >= 2

    def test_unknown_flip_selection_rejected(self, mini_app):
        config = EnforcementConfig(flip_selection="sideways")
        with pytest.raises(ValueError):
            _run_site(mini_app, "guarded.c@1", config)


class TestDiodeEngine:
    def test_analyze_classifies_all_sites(self, mini_app):
        result = Diode().analyze(mini_app)
        assert result.total_target_sites == 4
        assert result.exposed_count == 2
        assert result.unsatisfiable_count == 1
        assert result.sanity_prevented_count == 1

    def test_bug_reports_only_for_exposed_sites(self, mini_app):
        result = Diode().analyze(mini_app)
        reports = result.bug_reports()
        assert {r.target for r in reports} == {"open.c@2", "guarded.c@1"}
        for report in reports:
            assert report.enforced_ratio().count("/") == 1
            assert report.triggering_input is not None

    def test_table1_row_format(self, mini_app):
        row = Diode().analyze(mini_app).table1_row()
        assert row["total_target_sites"] == 4
        assert sum(v for k, v in row.items() if k != "total_target_sites") == 4

    def test_engine_config_is_used(self, mini_app):
        config = DiodeConfig()
        config.enforcement.max_iterations = 1
        result = Diode(config).analyze(mini_app)
        assert result.total_target_sites == 4

    def test_known_cve_mapping(self, mini_app):
        mini_app.expectations[0] = SiteExpectation(
            "open.c@2", "exposed", enforced_branches=0, cve="CVE-0000-0001"
        )
        result = Diode().analyze(mini_app)
        report = next(r for r in result.bug_reports() if r.target == "open.c@2")
        assert report.cve == "CVE-0000-0001"


class TestSessionStatusParity:
    """The enforcer always drives a solver session; every check's status
    equals a one-shot ``PortfolioSolver.check`` of the same conjunction
    (β plus the branches enforced so far)."""

    @pytest.mark.parametrize(
        "tag", ["open.c@2", "guarded.c@1", "capped.c@3", "narrow.c@4"]
    )
    def test_step_statuses_match_portfolio_check(self, mini_app, tag):
        result = _run_site(mini_app, tag)
        checked = [(step.iteration, step.solver_status) for step in result.steps]
        if result.outcome is EnforcementOutcome.TARGET_UNSATISFIABLE:
            checked.append((0, SolverStatus.UNSAT))
        assert checked
        reference = PortfolioSolver()
        for iteration, status in checked:
            enforced = result.enforced_branches[:iteration]
            conjunction = [result.target_constraint] + [b.condition for b in enforced]
            assert reference.check(conjunction).status == status

    @pytest.mark.parametrize(
        "tag", ["open.c@2", "guarded.c@1", "capped.c@3", "narrow.c@4"]
    )
    def test_each_run_opens_one_session_and_never_checks_one_shot(
        self, mini_app, tag
    ):
        """Every solver check of a run goes through the run's own session:
        one ``open_session`` per run and no call of the one-shot ``check``."""

        class CountingSolver(PortfolioSolver):
            sessions = 0
            one_shot_checks = 0

            def open_session(self):
                CountingSolver.sessions += 1
                return super().open_session()

            def check(self, constraints):
                CountingSolver.one_shot_checks += 1
                return super().check(constraints)

        enforcer = _enforcer(mini_app)
        enforcer.solver = CountingSolver()
        observation = _observation(mini_app, tag)
        for run in (1, 2):
            enforcer.run(observation)
            assert CountingSolver.sessions == run
        assert CountingSolver.one_shot_checks == 0
        assert enforcer.solver.query_count > 0


class TestNoCrossObservationState:
    """An enforcer keeps nothing from one observation to the next, so a
    rerun of the same observation pays the same solver checks and returns
    the same result (only the wall time differs)."""

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    @pytest.mark.parametrize(
        "tag", ["open.c@2", "guarded.c@1", "capped.c@3", "narrow.c@4"]
    )
    def test_rerun_repeats_checks_and_result(self, mini_app, tag, cached):
        """With a solver cache the rerun's checks are answered from it, yet
        the check count and the result are the first run's."""
        enforcer = _enforcer(mini_app, cache=SolverCache() if cached else None)
        observation = _observation(mini_app, tag)
        runs = []
        for _ in range(2):
            before = enforcer.solver.query_count
            result = enforcer.run(observation)
            checks = enforcer.solver.query_count - before
            runs.append((checks, dataclasses.replace(result, elapsed_seconds=0.0)))
        (first_checks, first), (second_checks, second) = runs
        assert first_checks == second_checks > 0
        assert first == second

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    @pytest.mark.parametrize(
        "tag", ["open.c@2", "guarded.c@1", "capped.c@3", "narrow.c@4"]
    )
    def test_earlier_observations_do_not_change_a_later_one(
        self, mini_app, tag, cached
    ):
        """Running every other site's observation first through the same
        enforcer (and, when cached, the same solver cache) leaves this
        site's checks and result as a new enforcer's."""
        observation = _observation(mini_app, tag)
        fresh = _enforcer(mini_app, cache=SolverCache() if cached else None)
        expected = fresh.run(observation)
        expected_checks = fresh.solver.query_count

        shared = _enforcer(mini_app, cache=SolverCache() if cached else None)
        for other in ("open.c@2", "guarded.c@1", "capped.c@3", "narrow.c@4"):
            if other != tag:
                shared.run(_observation(mini_app, other))
        before = shared.solver.query_count
        result = shared.run(observation)
        assert shared.solver.query_count - before == expected_checks
        assert dataclasses.replace(result, elapsed_seconds=0.0) == dataclasses.replace(
            expected, elapsed_seconds=0.0
        )

    @pytest.mark.parametrize("mode", ["last", "random"])
    def test_ablation_flip_modes_rerun_identically(self, mini_app, mode):
        """The ablation selections are deterministic per observation: a
        rerun enforces the same branches in the same order."""
        enforcer = _enforcer(mini_app, EnforcementConfig(flip_selection=mode))
        observation = _observation(mini_app, "guarded.c@1")
        first = enforcer.run(observation)
        second = enforcer.run(observation)
        assert second.outcome is first.outcome
        assert [branch.label for branch in second.enforced_branches] == [
            branch.label for branch in first.enforced_branches
        ]
        assert second.triggering_input == first.triggering_input
