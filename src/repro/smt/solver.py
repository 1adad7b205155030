"""The portfolio solver front end.

This is the component the rest of the system treats as "the SMT solver" (the
role played by Z3 in the paper).  A query is a conjunction of boolean terms
over bitvector variables; the answer is SAT with a model, UNSAT, or UNKNOWN.

The portfolio runs, in order:

1. **Simplification** — constant folding may already decide the query.
2. **Interval propagation** — an HC4-style contractor over the conjunction;
   an empty box is a proof of unsatisfiability, and the contracted box feeds
   the later layers.
3. **Algebraic heuristics** — extreme-point candidates tuned to the shape of
   overflow constraints.
4. **Guided random sampling** — boundary-biased sampling plus hill climbing.
5. **Bit-blasting + CDCL** — the complete fallback.

Layers 3 and 4 can only return SAT (with a checked model); layer 2 can only
return UNSAT; layer 5 is complete but is budgeted by a conflict limit so the
front end degrades to UNKNOWN rather than hanging on adversarial queries.

Every query takes one path: with a :class:`~repro.smt.cache.SolverCache`
attached, the whole-query cache answers or the portfolio decides the
query's canonical representative; without one, the portfolio decides the
query as given.  Callers that issue long chains of near-identical queries
(the enforcement loop) drive a :class:`SolverSession` (via
:meth:`PortfolioSolver.open_session`): a push/pop constraint stack whose
complete backend keeps one persistent
:class:`~repro.smt.bitblast.BitBlaster` and one incremental
:class:`~repro.smt.sat.CDCLSolver`, so only delta conjuncts are blasted
and learned clauses carry over between checks; per-check conjuncts are
asserted through CDCL assumptions, never permanent units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import TRACER
from repro.smt import builder as b
from repro.smt.bitblast import BitBlaster, BitBlastError
from repro.smt.cache import CachedVerdict, SolverCache
from repro.smt.evalmodel import Model, satisfies
from repro.smt.heuristics import try_algebraic_solution
from repro.smt.interval import Interval, propagate_intervals
from repro.smt.sampler import ModelSampler, SamplerConfig, split_conjuncts
from repro.smt.sat import CDCLSolver, SatResult, SatStatus
from repro.smt.simplify import simplify
from repro.smt.terms import Term, TermKind


class SolverStatus:
    """Status constants for :class:`SolverResult`."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverResult:
    """Outcome of a portfolio query."""

    status: str
    model: Optional[Model] = None
    reason: str = ""
    elapsed_seconds: float = 0.0
    stages_tried: Tuple[str, ...] = ()

    @property
    def is_sat(self) -> bool:
        return self.status == SolverStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == SolverStatus.UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.status == SolverStatus.UNKNOWN


@dataclass
class SolverConfig:
    """Tuning knobs for :class:`PortfolioSolver`."""

    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    enable_bitblast: bool = True
    bitblast_max_conflicts: int = 200_000
    bitblast_max_width: int = 64
    heuristic_max_checks: int = 768
    seed: Optional[int] = 0

    def fingerprint(self) -> Tuple:
        """The knobs a cached verdict depends on.

        Part of every solver-cache key, and the validity stamp of a
        persistent :class:`~repro.smt.cachestore.CacheStore` — results
        computed under different budgets must never be conflated, within a
        run or across runs.  Primitives only, so it survives a JSON round
        trip unchanged.
        """
        sampler = self.sampler
        return (
            self.enable_bitblast,
            self.bitblast_max_conflicts,
            self.bitblast_max_width,
            self.heuristic_max_checks,
            self.seed,
            sampler.random_attempts_per_sample,
            sampler.hill_climb_steps,
            sampler.seed,
            sampler.boundary_bias,
            sampler.perturbation_attempts,
        )


class SolverTelemetry:
    """Compatibility shim over the campaign-wide metrics registry.

    Historically this class held its own process-wide counters; they now
    live in :data:`repro.obs.metrics.METRICS` under ``solver.*`` names, so
    solver effort aggregates with every other layer's metrics, travels
    through the process-backend wire beside cache deltas, and shows up in
    trace reports.  The shim preserves the original API — ``record_*``
    methods, a flat :meth:`snapshot` dict with the legacy key names, and
    :meth:`reset` — for the benchmarks and tests built on it.

    :meth:`reset` is mark-based: the registry's counters stay monotonic
    (other observers may be mid-delta), and the shim subtracts its mark,
    so the observable semantics — counters monotonic between resets — are
    unchanged.  All methods are thread-safe.
    """

    #: legacy snapshot key -> registry counter name (snapshot order).
    _COUNTERS = {
        "queries": "solver.queries",
        "session_checks": "solver.session_checks",
        "bitblast_calls": "solver.bitblast_calls",
        "cdcl_conflicts": "solver.cdcl_conflicts",
        "cdcl_decisions": "solver.cdcl_decisions",
        "cdcl_propagations": "solver.cdcl_propagations",
        "propagations": "solver.propagations",
        "sat_decisions": "solver.sat_decisions",
    }

    #: Registry histogram behind the legacy ``bitblast_seconds`` float.
    _BITBLAST_HISTOGRAM = "solver.bitblast.seconds"

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else METRICS
        self._mark: Dict[str, int] = {}
        self.reset()

    # ------------------------------------------------------------------
    def _raw(self) -> Dict[str, int]:
        """Registry-level raw values for every legacy key (ns for time)."""
        raw = {
            key: self._registry.counter(name).value
            for key, name in self._COUNTERS.items()
        }
        raw["bitblast_seconds"] = self._registry.histogram(
            self._BITBLAST_HISTOGRAM
        ).sum_nanos
        return raw

    def reset(self) -> None:
        self._mark = self._raw()

    # ------------------------------------------------------------------
    def record_query(self, session: bool) -> None:
        self._registry.counter("solver.queries").inc()
        if session:
            self._registry.counter("solver.session_checks").inc()

    def record_bitblast(self, elapsed: float, result: Optional[SatResult]) -> None:
        self._registry.counter("solver.bitblast_calls").inc()
        self._registry.histogram(self._BITBLAST_HISTOGRAM).observe(elapsed)
        if result is not None:
            self._registry.counter("solver.cdcl_conflicts").inc(result.conflicts)
            self._registry.counter("solver.cdcl_decisions").inc(result.decisions)
            self._registry.counter("solver.cdcl_propagations").inc(
                result.propagations
            )
            # Flattened-loop work counters: wire-merged like every other
            # ``solver.*`` name, so the propagation/decision volume of the
            # SAT core is visible in ``campaign --json`` and trace reports.
            self._registry.counter("solver.propagations").inc(result.propagations)
            self._registry.counter("solver.sat_decisions").inc(result.decisions)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        raw = self._raw()
        out: Dict[str, float] = {}
        for key in (
            "queries",
            "session_checks",
            "bitblast_calls",
            "bitblast_seconds",
            "cdcl_conflicts",
            "cdcl_decisions",
            "cdcl_propagations",
            "propagations",
            "sat_decisions",
        ):
            value = raw[key] - self._mark.get(key, 0)
            if key == "bitblast_seconds":
                out[key] = round(value / 1e9, 6)
            else:
                out[key] = value
        return out


#: The process-wide telemetry instance (see :class:`SolverTelemetry`).
TELEMETRY = SolverTelemetry()


#: Signature of the complete-backend hook: conjuncts -> (status, model).
BitblastFn = Callable[[Sequence[Term]], Tuple[str, Optional[Model]]]


class _TrackedBackend:
    """Record whether a complete-backend hook produced a *tainted* verdict.

    Stored cache verdicts must be a pure function of the canonical system —
    that is what makes cached answers schedule- and run-independent.  A
    verdict derived through a *session's* incremental CDCL is not: the
    solver retains learned clauses, activities and phases from earlier
    checks, so the result depends on the session's private (but per-caller
    deterministic) history.  The store sites wrap the hook and skip caching
    any verdict whose derivation flowed through tainted state; verdicts
    decided by the pure layers, answered from the cache, or re-derived by
    the session's *fresh-solve fallbacks* (width clash, resource limits,
    budget exhaustion) are pure and remain storable.

    Taint is reported per call by the wrapped hook through its
    ``last_call_tainted`` attribute; unknown callables are conservatively
    treated as tainted.
    """

    __slots__ = ("fn", "used")

    def __init__(self, fn: BitblastFn) -> None:
        self.fn = fn
        self.used = False

    def __call__(self, conjuncts: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        result = self.fn(conjuncts)
        self.used = self.used or getattr(self.fn, "last_call_tainted", True)
        return result

    @classmethod
    def wrap(cls, fn: Optional[BitblastFn]) -> Optional["_TrackedBackend"]:
        return None if fn is None else cls(fn)


class PortfolioSolver:
    """Layered QF_BV solver: simplify → intervals → heuristics → sampling → CDCL.

    When a :class:`~repro.smt.cache.SolverCache` is supplied, queries are
    canonicalized (alpha-renamed over the hash-consed DAG) and the portfolio
    decides the canonical representative, so alpha-equivalent queries from
    sibling sites and repeated enforcement iterations share one verdict.
    """

    def __init__(
        self,
        config: Optional[SolverConfig] = None,
        cache: Optional[SolverCache] = None,
    ) -> None:
        self.config = config or SolverConfig()
        self.cache = cache
        self.query_count = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check(self, constraints: Iterable[Term]) -> SolverResult:
        """Decide the conjunction of ``constraints``."""
        with TRACER.span("solve", session=False) as span:
            mark = METRICS.counter("solver.propagations").value
            started = time.perf_counter()
            self.query_count += 1
            TELEMETRY.record_query(session=False)
            constraint_list = [simplify(c) for c in constraints]
            stages: List[str] = []

            try:
                # Layer 1: simplification may already decide the query.
                stages.append("simplify")
                decided = self._decide_by_simplification(constraint_list)
                if decided is not None:
                    return self._finish(decided, started, stages)

                conjuncts: List[Term] = []
                for constraint in constraint_list:
                    conjuncts.extend(split_conjuncts(constraint))

                if self.cache is not None:
                    return self._check_cached(conjuncts, started, stages)
                return self._finish(
                    self._run_portfolio(conjuncts, stages), started, stages
                )
            finally:
                # Propagation-loop work attributed to this solve, so trace
                # reports can rank queries by SAT-core effort, not just wall.
                span.attrs["propagations"] = (
                    METRICS.counter("solver.propagations").value - mark
                )

    def open_session(self) -> "SolverSession":
        """Create an incremental push/pop session backed by this solver.

        Sessions are classification-transparent (same statuses as
        :meth:`check`, possibly different models) and not thread-safe;
        see :class:`SolverSession` for the full contract.
        """
        return SolverSession(self)

    def _check_session(self, session: "SolverSession") -> SolverResult:
        """Decide a session's conjunction (see :meth:`SolverSession.check`)."""
        with TRACER.span("solve", session=True) as span:
            mark = METRICS.counter("solver.propagations").value
            started = time.perf_counter()
            self.query_count += 1
            TELEMETRY.record_query(session=True)
            stages: List[str] = ["simplify"]
            conjuncts = list(session.conjuncts)

            try:
                decided = self._decide_by_simplification(conjuncts)
                if decided is not None:
                    return self._finish(decided, started, stages)
                if self.cache is not None:
                    return self._check_cached(
                        conjuncts, started, stages, bitblast_fn=session
                    )
                return self._finish(
                    self._run_portfolio(conjuncts, stages, session),
                    started,
                    stages,
                )
            finally:
                span.attrs["propagations"] = (
                    METRICS.counter("solver.propagations").value - mark
                )

    def solve_for_model(self, constraints: Iterable[Term]) -> Optional[Model]:
        """Return a model of the conjunction, or ``None`` if UNSAT/UNKNOWN."""
        result = self.check(constraints)
        return result.model if result.is_sat else None

    def sample_models(
        self,
        constraints: Iterable[Term],
        count: int,
        seed: Optional[int] = None,
    ) -> List[Model]:
        """Sample up to ``count`` models of the conjunction (with replacement)."""
        constraint_list = [simplify(c) for c in constraints]
        conjuncts: List[Term] = []
        for constraint in constraint_list:
            conjuncts.extend(split_conjuncts(constraint))
        variables = self._collect_variables(conjuncts)
        whole = b.band(*conjuncts) if conjuncts else b.TRUE
        sampler = ModelSampler(
            whole,
            variables,
            config=replace(
                self.config.sampler,
                seed=seed if seed is not None else self.config.sampler.seed,
            ),
            fallback_solve=lambda c: self.solve_for_model([c]),
        )
        return sampler.sample(count)

    # ------------------------------------------------------------------
    # Cached path
    # ------------------------------------------------------------------
    def _check_cached(
        self,
        conjuncts: List[Term],
        started: float,
        stages: List[str],
        bitblast_fn: Optional[BitblastFn] = None,
    ) -> SolverResult:
        """Answer the query through the shared cache.

        Canonicalize and look up, verifying any translated SAT model
        against the actual conjuncts (a failure is treated as a miss and
        re-derived).  On a miss the portfolio decides the *canonical
        representative*, so the answer is a pure function of the canonical
        system — independent of worker scheduling and of which alpha-variant
        of the system was solved first — and the verdict is stored unless
        the (history-dependent) session backend actually decided it.
        """
        stages.append("cache")
        system = self.cache.canonicalize(conjuncts, self.config.fingerprint())
        cached = self.cache.lookup(system)
        if cached is not None:
            model = None
            if cached.status == SolverStatus.SAT:
                model = system.translate_model(cached.canonical_model)
            if model is None or all(satisfies(c, model) for c in conjuncts):
                stages.extend(cached.stages)
                hit = SolverResult(cached.status, model=model, reason="cache")
                return self._finish(hit, started, stages)
            # A stored model that does not survive translation means the
            # canonicalization missed a distinction; fall through and
            # re-derive (and overwrite) the entry.
            self.cache.note_invalid_hit()

        mark = len(stages)
        tracked = _TrackedBackend.wrap(bitblast_fn)
        canonical = self._run_portfolio(list(system.conjuncts), stages, tracked)
        if tracked is None or not tracked.used:
            self.cache.store(
                system,
                CachedVerdict(
                    status=canonical.status,
                    canonical_model=canonical.model,
                    reason=canonical.reason,
                    stages=tuple(stages[mark:]),
                ),
            )
        result = SolverResult(canonical.status, reason=canonical.reason)
        if canonical.is_sat:
            result.model = system.translate_model(canonical.model)
        return self._finish(result, started, stages)

    # ------------------------------------------------------------------
    # The layered portfolio
    # ------------------------------------------------------------------
    def _run_portfolio(
        self,
        conjuncts: List[Term],
        stages: List[str],
        bitblast_fn: Optional[BitblastFn] = None,
    ) -> SolverResult:
        """Layers 2-5 over an already simplified, split conjunction."""
        variables = self._collect_variables(conjuncts)
        widths = {str(v.name): v.width for v in variables}

        # Layer 2: interval propagation (UNSAT proofs + bounds for later layers).
        stages.append("intervals")
        feasible, bounds = propagate_intervals(conjuncts, widths)
        if not feasible:
            return SolverResult(SolverStatus.UNSAT, reason="interval propagation")
        point_model = self._point_model_if_determined(variables, bounds)
        if point_model is not None and all(
            satisfies(c, point_model) for c in conjuncts
        ):
            return SolverResult(
                SolverStatus.SAT, model=point_model, reason="interval point"
            )

        whole = b.band(*conjuncts) if conjuncts else b.TRUE

        # Layer 3: algebraic extreme-point heuristics.
        stages.append("heuristics")
        model = try_algebraic_solution(
            whole, variables, max_checks=self.config.heuristic_max_checks
        )
        if model is not None:
            return SolverResult(SolverStatus.SAT, model=model, reason="heuristics")

        # Layer 4: guided sampling, seeded from the solver's seed unless the
        # sampler config pins its own, so a configuration decides its models.
        stages.append("sampling")
        sampler_config = self.config.sampler
        if sampler_config.seed is None:
            sampler_config = replace(sampler_config, seed=self.config.seed)
        sampler = ModelSampler(
            whole,
            variables,
            config=sampler_config,
            fallback_solve=None,
        )
        model = sampler.sample_one()
        if model is not None:
            return SolverResult(SolverStatus.SAT, model=model, reason="sampling")

        # Layer 5: complete bit-blasting backend.
        if self.config.enable_bitblast and self._blastable(conjuncts):
            stages.append("bitblast")
            status, model = (bitblast_fn or self._bitblast)(conjuncts)
            if status == SatStatus.SAT and model is not None:
                restricted = model.restricted_to(widths)
                return SolverResult(
                    SolverStatus.SAT, model=restricted, reason="bitblast"
                )
            if status == SatStatus.UNSAT:
                return SolverResult(SolverStatus.UNSAT, reason="bitblast")

        return SolverResult(SolverStatus.UNKNOWN, reason="portfolio exhausted")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finish(
        self, result: SolverResult, started: float, stages: List[str]
    ) -> SolverResult:
        result.elapsed_seconds = time.perf_counter() - started
        result.stages_tried = tuple(stages)
        if result.is_sat and result.model is None:
            raise AssertionError("SAT result without a model")
        return result

    @staticmethod
    def _decide_by_simplification(constraints: Sequence[Term]) -> Optional[SolverResult]:
        all_true = True
        for constraint in constraints:
            if constraint.kind is TermKind.BOOL_CONST:
                if not constraint.value:
                    return SolverResult(SolverStatus.UNSAT, reason="simplify")
            else:
                all_true = False
        if all_true:
            return SolverResult(SolverStatus.SAT, model=Model(), reason="simplify")
        return None

    @staticmethod
    def _collect_variables(conjuncts: Sequence[Term]) -> List[Term]:
        seen: Dict[str, Term] = {}
        for conjunct in conjuncts:
            for variable in conjunct.variables():
                if variable.is_bv:
                    seen.setdefault(str(variable.name), variable)
        return [seen[name] for name in sorted(seen)]

    @staticmethod
    def _point_model_if_determined(
        variables: Sequence[Term], bounds: Dict[str, Interval]
    ) -> Optional[Model]:
        model = Model()
        for variable in variables:
            interval = bounds.get(str(variable.name))
            if interval is None or not interval.is_point:
                return None
            model[str(variable.name)] = interval.lo
        return model if len(model) == len(variables) else None

    def _blastable(self, conjuncts: Sequence[Term]) -> bool:
        node_budget = 4000
        wide_multiplications = 0
        nodes = 0
        for conjunct in conjuncts:
            for term in conjunct.subterms():
                nodes += 1
                if nodes > node_budget:
                    return False
                if term.is_bv and term.width > self.config.bitblast_max_width:
                    return False
                if (
                    term.kind is TermKind.MUL
                    and term.width is not None
                    and term.width > 32
                    and not any(a.is_const for a in term.args)
                ):
                    wide_multiplications += 1
        # Each wide variable×variable multiplier costs thousands of clauses;
        # a pure-Python CDCL run over several of them will not finish in a
        # useful amount of time, so the portfolio degrades to UNKNOWN instead.
        return wide_multiplications <= 2

    def _bitblast(self, conjuncts: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        started = time.perf_counter()
        try:
            blaster = BitBlaster()
            blaster.assert_all(conjuncts)
            result = CDCLSolver(
                blaster.cnf, max_conflicts=self.config.bitblast_max_conflicts
            ).solve()
        except (BitBlastError, RecursionError, MemoryError):
            TELEMETRY.record_bitblast(time.perf_counter() - started, None)
            return SatStatus.UNKNOWN, None
        TELEMETRY.record_bitblast(time.perf_counter() - started, result)
        if result.status == SatStatus.SAT:
            return SatStatus.SAT, blaster.extract_model(result)
        return result.status, None


class SolverSession:
    """An incremental solving session over one :class:`PortfolioSolver`.

    The session holds a stack of conjuncts manipulated with :meth:`push` /
    :meth:`pop` and decided with :meth:`check`; the enforcement loop pushes
    the target constraint once and then one branch-constraint delta per
    iteration instead of rebuilding (and re-simplifying, re-splitting,
    re-blasting) the whole conjunction list every time.

    The cheap portfolio layers and the whole-query cache behave exactly
    as in :meth:`PortfolioSolver.check`; what is incremental is the
    complete backend: one persistent :class:`BitBlaster` translates only
    the conjuncts it has not seen before (terms are hash-consed, and
    canonicalized prefixes are stable across growing queries), and one
    persistent :class:`CDCLSolver` keeps its learned clauses, variable
    activity and saved phases across checks, asserting the current
    conjuncts through per-call assumptions.  Status parity with
    :meth:`PortfolioSolver.check` is the invariant: the incremental
    backend may find a different *model* but must not change the
    *status*.  SAT and UNSAT are semantic, so they can never flip; the one
    principled gap is the conflict-budget boundary, where inherited search
    state could make a timeout land differently — a session CDCL timeout
    therefore retries the pure one-shot backend (never less complete than
    a one-shot check), and the parity tests and ``bench_solver.py`` check
    the equality empirically.

    Sessions are not thread-safe; each worker drives its own.
    """

    def __init__(self, solver: PortfolioSolver) -> None:
        self.solver = solver
        #: Whether the most recent complete-backend call's verdict depended
        #: on session state (see :class:`_TrackedBackend`): ``True`` when
        #: the incremental CDCL decided it, ``False`` when a cheap layer
        #: or one of the fresh-solve fallbacks did.
        self.last_call_tainted = False
        self._conjuncts: List[Term] = []
        self._frames: List[int] = []
        self._blaster: Optional[BitBlaster] = None
        self._cdcl: Optional[CDCLSolver] = None
        #: name -> width of every bitvector variable the persistent blaster
        #: has seen.  The blaster keys variable bit-vectors by *name*, but
        #: with a cache attached each check blasts its own canonical
        #: conjuncts, whose names restart at ``v000`` per query, so two
        #: checks can reuse one name at different widths; such a clash must
        #: not reach (and corrupt) the shared blaster.
        self._var_widths: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of pushed (still-active) frames."""
        return len(self._frames)

    @property
    def conjuncts(self) -> Tuple[Term, ...]:
        """The currently asserted conjuncts (simplified and split)."""
        return tuple(self._conjuncts)

    def push(self, *constraints: Term) -> None:
        """Open a frame asserting ``constraints`` on top of the stack."""
        self._frames.append(len(self._conjuncts))
        for constraint in constraints:
            self._conjuncts.extend(split_conjuncts(simplify(constraint)))

    def pop(self) -> None:
        """Drop the most recent frame and its conjuncts.

        The persistent bit-blaster keeps the popped conjuncts' Tseitin
        definitions (they are unasserted and satisfiable, so retained
        learned clauses stay sound); re-pushing the same constraint later
        costs no new CNF.
        """
        if not self._frames:
            raise IndexError("pop from an empty solver session")
        del self._conjuncts[self._frames.pop():]

    def check(self) -> SolverResult:
        """Decide the conjunction of every pushed constraint.

        Parity invariant: the status is identical to what
        :meth:`PortfolioSolver.check` would return for the same conjuncts
        — only the model may differ.  Verdicts the incremental CDCL
        derives are answered but never stored in the shared cache (they
        depend on this session's history).
        """
        return self.solver._check_session(self)

    # ------------------------------------------------------------------
    def __call__(self, conjuncts: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        """The session *is* its complete-backend hook (see ``_bitblast``)."""
        return self._bitblast(conjuncts)

    def _bitblast(self, conjuncts: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        """Complete-backend hook: delta-blast + assumption-based CDCL.

        When a conjunct reuses a variable *name* the persistent blaster has
        already allocated at a different width (canonical names restart at
        ``v000`` per query), the call falls back to a fresh
        one-shot blast: the per-name bit-vectors of the shared blaster
        cannot represent both widths, and a collision would wrongly degrade
        a decidable query to UNKNOWN.
        """
        self.last_call_tainted = False
        if self._width_clash(conjuncts):
            return self.solver._bitblast(conjuncts)
        started = time.perf_counter()
        config = self.solver.config
        try:
            if self._blaster is None:
                self._blaster = BitBlaster()
            assumptions = self._blaster.literals_for(conjuncts)
            if self._cdcl is None:
                self._cdcl = CDCLSolver(
                    self._blaster.cnf, max_conflicts=config.bitblast_max_conflicts
                )
            result = self._cdcl.solve(assumptions=assumptions)
        except (BitBlastError, RecursionError, MemoryError):
            # The session's accumulated CNF blew a resource limit the
            # current (smaller) conjunction alone would not; same policy
            # as the budget case below — retry fresh.
            TELEMETRY.record_bitblast(time.perf_counter() - started, None)
            return self.solver._bitblast(conjuncts)
        TELEMETRY.record_bitblast(time.perf_counter() - started, result)
        if result.status == SatStatus.UNKNOWN:
            # The per-call conflict budget ran out under the session's
            # inherited search state (learned clauses, activities, phases).
            # Retry once with the pure one-shot backend: a session must
            # never be *less* complete than the fresh-query path.
            return self.solver._bitblast(conjuncts)
        self.last_call_tainted = True
        if result.status == SatStatus.SAT:
            return SatStatus.SAT, self._blaster.extract_model(result)
        return result.status, None

    def _width_clash(self, conjuncts: Sequence[Term]) -> bool:
        """Whether ``conjuncts`` reuse a seen variable name at a new width.

        On no clash, the conjuncts' variables are recorded as seen.  The
        name keeps its first-seen width for the session's lifetime: the
        blaster's per-name bit-vectors can hold only one width, so later
        queries using the other width take the fresh one-shot backend —
        first width wins the incremental machinery, correctness never
        depends on which.
        """
        variables = [
            variable
            for conjunct in conjuncts
            for variable in conjunct.variables()
            if variable.is_bv
        ]
        for variable in variables:
            known = self._var_widths.get(str(variable.name))
            if known is not None and known != variable.width:
                return True
        for variable in variables:
            self._var_widths[str(variable.name)] = variable.width
        return False
