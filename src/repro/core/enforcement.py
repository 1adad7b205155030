"""Goal-directed conditional branch enforcement (paper Figure 7).

The algorithm, for one ⟨target expression, seed path⟩ observation:

1. Build the target constraint β = ``overflow(B)`` and ask the solver for an
   input satisfying β.  If that input triggers the overflow, done — no
   conditional branches were enforced (the common case in Table 2).
2. Otherwise compress the seed path, keep only the branches relevant to β,
   and repeat: find the *first flipped branch* — the earliest relevant
   conditional where the current candidate diverges from the seed path —
   conjoin its branch constraint, re-solve, re-test.  Stop when an input
   triggers the overflow, when the constraint becomes unsatisfiable, or when
   the candidate already follows the seed path on every relevant branch yet
   still does not trigger the overflow.

Enforcing only first-flipped branches is the paper's key idea: the candidate
is forced through the sanity checks it actually failed while remaining free
to take any path through the blocking checks.

Solver interaction is *incremental* when the solver configuration enables
sessions (the default): each observation drives its own
:class:`~repro.smt.solver.SolverSession`, pushes the target constraint β
once, then pushes one branch-constraint delta per iteration instead of
rebuilding (and re-simplifying, re-splitting, re-blasting) the whole
conjunction list every time.  Classification parity with the fresh-query
path is the invariant either way.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.branches import (
    BranchConstraint,
    compress_branches,
    extract_branch_constraints,
    first_unsatisfied,
    relevant_branches,
)
from repro.core.detection import CandidateEvaluation, ErrorDetector
from repro.core.inputs import GeneratedInput, InputGenerator
from repro.core.overflow import OverflowSpec, overflow_constraint
from repro.core.target import TargetObservation
from repro.obs.trace import TRACER
from repro.smt import builder as smt
# Unused here; bound so perfbench/layers.py can wrap ``simplify`` by name.
from repro.smt.simplify import simplify  # noqa: F401
from repro.smt.solver import PortfolioSolver, SolverResult, SolverSession
from repro.smt.terms import Term


class EnforcementOutcome(enum.Enum):
    """How the enforcement loop for one observation terminated."""

    OVERFLOW_TRIGGERED = "overflow_triggered"
    TARGET_UNSATISFIABLE = "target_unsatisfiable"
    CONSTRAINTS_UNSATISFIABLE = "constraints_unsatisfiable"
    SEED_PATH_EXHAUSTED = "seed_path_exhausted"
    ITERATION_LIMIT = "iteration_limit"
    SOLVER_UNKNOWN = "solver_unknown"


@dataclass
class EnforcementStep:
    """One iteration of the enforcement loop (for reporting and ablation)."""

    iteration: int
    enforced_label: Optional[int]
    solver_status: str
    candidate_size: Optional[int]
    triggered: bool
    candidate_model: Optional[dict] = None


@dataclass
class EnforcementConfig:
    """Tuning knobs for the enforcement loop.

    ``flip_selection`` and ``filter_relevant`` exist for the ablation
    benchmarks: the paper's algorithm always enforces the *first* flipped
    branch in execution order and always discards branches that share no
    input variable with the target constraint.  Selecting the last/random
    flipped branch, or keeping irrelevant branches, lets the benchmarks
    quantify how much those two design choices matter.
    """

    max_iterations: int = 32
    overflow_spec: OverflowSpec = field(default_factory=OverflowSpec)
    flip_selection: str = "first"
    filter_relevant: bool = True


@dataclass
class EnforcementResult:
    """The outcome of running Figure 7 on one target observation."""

    observation: TargetObservation
    outcome: EnforcementOutcome
    target_constraint: Term
    enforced_branches: List[BranchConstraint] = field(default_factory=list)
    relevant_branch_count: int = 0
    triggering_input: Optional[bytes] = None
    triggering_model: Optional[dict] = None
    evaluation: Optional[CandidateEvaluation] = None
    steps: List[EnforcementStep] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def enforced_count(self) -> int:
        """Number of conditional branches enforced before success/termination."""
        return len(self.enforced_branches)

    @property
    def found_overflow(self) -> bool:
        """Whether an overflow-triggering input was generated."""
        return self.outcome is EnforcementOutcome.OVERFLOW_TRIGGERED


class GoalDirectedEnforcer:
    """Run the goal-directed conditional branch enforcement algorithm.

    One enforcer serves one target site (``analyze_site`` constructs one
    per site) and keeps no state from one observation to the next: each
    :meth:`run` opens its own solver session or takes the fresh path.
    """

    def __init__(
        self,
        solver: PortfolioSolver,
        input_generator: InputGenerator,
        detector: ErrorDetector,
        config: Optional[EnforcementConfig] = None,
    ) -> None:
        self.solver = solver
        self.input_generator = input_generator
        self.detector = detector
        self.config = config or EnforcementConfig()

    # ------------------------------------------------------------------
    def run(self, observation: TargetObservation) -> EnforcementResult:
        """Run the algorithm for one ⟨target expression, seed path⟩ pair."""
        with TRACER.span("enforce", site=observation.site.site_label):
            return self._run(observation)

    def _run(self, observation: TargetObservation) -> EnforcementResult:
        started = time.perf_counter()
        site_label = observation.site.site_label

        if observation.size_expression is None:
            return self._finish(
                EnforcementResult(
                    observation=observation,
                    outcome=EnforcementOutcome.TARGET_UNSATISFIABLE,
                    target_constraint=smt.bool_const(False),
                ),
                started,
            )

        beta = overflow_constraint(
            observation.size_expression, self.config.overflow_spec
        )
        result = EnforcementResult(
            observation=observation,
            outcome=EnforcementOutcome.ITERATION_LIMIT,
            target_constraint=beta,
        )

        # One incremental session per observation: β is pushed once, each
        # iteration pushes only its branch-constraint delta.
        session = (
            self.solver.open_session() if self.solver.config.enable_sessions else None
        )

        # Step 1: solve the target constraint alone.
        if session is not None:
            session.push(beta)
        solver_result = self._check(session, [beta])
        if solver_result.is_unsat:
            result.outcome = EnforcementOutcome.TARGET_UNSATISFIABLE
            return self._finish(result, started)
        if not solver_result.is_sat:
            result.outcome = EnforcementOutcome.SOLVER_UNKNOWN
            return self._finish(result, started)

        candidate = self.input_generator.generate(solver_result.model)
        with TRACER.span("screen", site=site_label, iteration=0):
            evaluation = self.detector.evaluate(candidate.data, site_label)
        result.steps.append(
            EnforcementStep(
                iteration=0,
                enforced_label=None,
                solver_status=solver_result.status,
                candidate_size=evaluation.requested_size,
                triggered=evaluation.triggers_overflow,
                candidate_model=solver_result.model.as_dict(),
            )
        )
        if evaluation.triggers_overflow:
            return self._succeed(result, candidate, evaluation, started)

        # Step 2: prepare the relevant compressed seed-path constraints.
        all_constraints = extract_branch_constraints(observation.seed_path)
        compressed = compress_branches(all_constraints)
        if self.config.filter_relevant:
            relevant = relevant_branches(compressed, beta)
        else:
            relevant = compressed
        result.relevant_branch_count = len(relevant)

        enforced: List[BranchConstraint] = []
        previous_candidate = candidate

        for iteration in range(1, self.config.max_iterations + 1):
            assignment = self.input_generator.assignment_for(
                previous_candidate.data, range(len(previous_candidate.data))
            )
            flipped = self._select_flipped(relevant, enforced, assignment)
            if flipped is None:
                # The candidate follows the seed path at every relevant
                # branch yet still does not trigger the overflow: the sanity
                # checks prevent any overflow at this site.
                result.outcome = EnforcementOutcome.SEED_PATH_EXHAUSTED
                return self._finish(result, started)

            enforced.append(flipped)
            result.enforced_branches = list(enforced)
            if session is not None:
                session.push(flipped.condition)
                constraints = []
            else:
                constraints = [beta] + [b.condition for b in enforced]
            solver_result = self._check(session, constraints)
            if solver_result.is_unsat:
                result.outcome = EnforcementOutcome.CONSTRAINTS_UNSATISFIABLE
                result.steps.append(
                    EnforcementStep(
                        iteration=iteration,
                        enforced_label=flipped.label,
                        solver_status=solver_result.status,
                        candidate_size=None,
                        triggered=False,
                    )
                )
                return self._finish(result, started)
            if not solver_result.is_sat:
                result.outcome = EnforcementOutcome.SOLVER_UNKNOWN
                return self._finish(result, started)

            candidate = self.input_generator.generate(solver_result.model)
            with TRACER.span("screen", site=site_label, iteration=iteration):
                evaluation = self.detector.evaluate(candidate.data, site_label)
            result.steps.append(
                EnforcementStep(
                    iteration=iteration,
                    enforced_label=flipped.label,
                    solver_status=solver_result.status,
                    candidate_size=evaluation.requested_size,
                    triggered=evaluation.triggers_overflow,
                    candidate_model=solver_result.model.as_dict(),
                )
            )
            if evaluation.triggers_overflow:
                return self._succeed(result, candidate, evaluation, started)
            previous_candidate = candidate

        result.outcome = EnforcementOutcome.ITERATION_LIMIT
        return self._finish(result, started)

    # ------------------------------------------------------------------
    def _check(
        self, session: Optional[SolverSession], constraints: Sequence[Term]
    ) -> SolverResult:
        """Decide the current conjunction: the session's stack, or
        ``constraints`` on the fresh path."""
        if session is not None:
            return session.check()
        return self.solver.check(constraints)

    # ------------------------------------------------------------------
    def _select_flipped(
        self,
        relevant: Sequence[BranchConstraint],
        enforced: Sequence[BranchConstraint],
        assignment,
    ) -> Optional[BranchConstraint]:
        """Pick which flipped branch to enforce next.

        The paper's algorithm takes the first flipped branch in execution
        order; the other modes exist only for the ablation study.
        """
        if self.config.flip_selection == "first":
            return first_unsatisfied(relevant, assignment)
        already = {id(branch) for branch in enforced}
        unsatisfied = [
            branch
            for branch in sorted(relevant, key=lambda b: b.first_sequence_index)
            if id(branch) not in already and not branch.satisfied_by(assignment)
        ]
        if not unsatisfied:
            # Fall back to the paper's definition so that termination
            # behaviour (seed path exhausted) stays identical.
            return first_unsatisfied(relevant, assignment)
        if self.config.flip_selection == "last":
            return unsatisfied[-1]
        if self.config.flip_selection == "random":
            import random

            return random.Random(len(enforced)).choice(unsatisfied)
        raise ValueError(f"unknown flip_selection {self.config.flip_selection!r}")

    def _succeed(
        self,
        result: EnforcementResult,
        candidate: GeneratedInput,
        evaluation: CandidateEvaluation,
        started: float,
    ) -> EnforcementResult:
        result.outcome = EnforcementOutcome.OVERFLOW_TRIGGERED
        result.triggering_input = candidate.data
        result.triggering_model = candidate.model.as_dict()
        result.evaluation = evaluation
        return self._finish(result, started)

    @staticmethod
    def _finish(result: EnforcementResult, started: float) -> EnforcementResult:
        result.elapsed_seconds = time.perf_counter() - started
        return result
