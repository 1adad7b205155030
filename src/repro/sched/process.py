"""The process backend: real CPU parallelism over ``ProcessPoolExecutor``.

Terms are hash-consed with identity equality, so nothing containing a
:class:`~repro.smt.terms.Term` may cross the process boundary — a pickled
term would rebuild as a distinct, non-interned object and silently break
``is``-based equality.  The backend therefore ships only:

* **out**: slim :class:`~repro.sched.base.CampaignUnit` descriptors
  (primitives only); each worker rebuilds the application model and its
  per-application collaborators from the registry short name, lazily and
  at most once per ⟨worker, application⟩ pair;
* **back**: :class:`SiteResultPayload` records (classification value, bug
  report, timing — all term-free) plus the worker cache's *new* artifacts
  in the :mod:`repro.smt.cachestore` wire format — whole-query and
  component-granularity verdicts, each tagged with its kind — which the
  parent merges into the campaign cache so a persistent store (or a later
  run) sees every worker's derivations.  When the
  campaign enables triage, each unit's result also carries a wire-form
  :class:`~repro.triage.corpus.WitnessRecord` (validated, minimized,
  signed *in the worker*, which parallelizes minimization's concrete
  re-validation runs); the parent collects them into
  ``request.witness_results`` for the campaign's corpus merge.

Workers are primed at pool start with the parent cache's current contents
(the warm-start path when a ``--cache-dir`` store was loaded), and report
per-unit hit/miss counter deltas so the campaign's aggregate cache
statistics reflect worker-side lookups.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sched.base import (
    Backend,
    CampaignUnit,
    Slot,
    UnitRunRequest,
    drain_futures,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.report import OverflowBugReport, SiteResult
    from repro.core.sites import TargetSite
    from repro.sched.context import ApplicationContext

#: Width of :meth:`SolverCache.stats_snapshot` tuples (imported lazily in
#: workers, so the width is mirrored here; asserted against the class when
#: a worker builds its state).
_STATS_FIELDS = 7


@dataclass
class SiteResultPayload:
    """Picklable, term-free projection of a :class:`SiteResult`.

    Carries exactly what the campaign report consumes — the classification,
    the (already picklable) bug report and the discovery timing.  The
    parent re-attaches its own :class:`TargetSite` object when rebuilding,
    so sites never cross the pipe either.
    """

    classification: str
    discovery_seconds: float
    bug_report: Optional["OverflowBugReport"]

    @classmethod
    def from_site_result(cls, result: "SiteResult") -> "SiteResultPayload":
        return cls(
            classification=result.classification.value,
            discovery_seconds=result.discovery_seconds,
            bug_report=result.bug_report,
        )

    def to_site_result(self, site: "TargetSite") -> "SiteResult":
        from repro.core.report import SiteClassification, SiteResult

        return SiteResult(
            site=site,
            classification=SiteClassification(self.classification),
            bug_report=self.bug_report,
            discovery_seconds=self.discovery_seconds,
        )


class _WorkerState:
    """Per-process collaborators, built once by the pool initializer."""

    def __init__(
        self,
        application_names: List[str],
        diode,
        use_cache: bool,
        seed_entries: List[dict],
        triage: bool = False,
        minimize_witnesses: bool = True,
        trace_dir: Optional[str] = None,
        events: bool = True,
        heartbeat_seconds: float = 0.5,
        event_queue=None,
    ) -> None:
        from repro.obs import events as ev
        from repro.obs.metrics import METRICS
        from repro.smt.cache import SimplifyMemo, SolverCache

        self.application_names = application_names
        self.diode = diode
        self.cache = SolverCache() if use_cache else None
        self.contexts: Dict[int, "ApplicationContext"] = {}
        self.triage = triage
        self.minimize_witnesses = minimize_witnesses
        self.triagers: Dict[int, object] = {}
        #: Registry wire mark for per-unit metric deltas (the worker-side
        #: half of the campaign's metric aggregation).
        self.metrics_mark: dict = METRICS.snapshot()
        # A fork-started worker inherits the parent's sink lists, whose
        # already-open JSONL handles point at the *parent's* files —
        # emitting through them would write every worker record into the
        # parent's file as well as the worker's own.  Drop the inherited
        # sinks (the parent still owns the handles) before attaching the
        # worker's per-process ones.
        from repro.obs.trace import TRACER, JsonlSink

        TRACER.clear_sinks()
        ev.EVENTS.clear_sinks()
        if trace_dir:
            # Each worker appends to its own spans-<pid>.jsonl; the sink
            # lives for the worker's lifetime and dies with the pool.
            TRACER.add_sink(JsonlSink(trace_dir))
        # The event stream mirrors the parent's configuration: the worker
        # persists its own events-<pid>.jsonl and forwards the low-rate
        # streaming subset live over the side queue.  The count mark is
        # taken *before* worker.up so the first unit's delta carries it.
        ev.EVENTS.enabled = bool(events)
        if events:
            if trace_dir:
                ev.EVENTS.add_sink(ev.JsonlEventSink(trace_dir))
            if event_queue is not None:
                ev.EVENTS.add_sink(ev.QueueSink(event_queue))
        self.events_mark: dict = ev.EVENTS.snapshot()
        if events:
            ev.EVENTS.emit(ev.WORKER_UP)
            # Daemon thread, dies with the worker; nothing to stop.
            ev.start_heartbeat(max(0.05, float(heartbeat_seconds)))
        #: ``(kind, key)`` pairs already shipped to the parent — both
        #: artifact kinds (whole-query, component) travel through the same
        #: delta stream.
        self.exported_keys: set = set()
        assert SolverCache.STATS_FIELDS == _STATS_FIELDS
        self.stats_mark: Tuple[int, ...] = (0,) * _STATS_FIELDS
        if self.cache is not None:
            # The memo stays enabled for the worker's whole lifetime; the
            # process dies with the pool, so no disable pairing is needed.
            SimplifyMemo.enable()
            if seed_entries:
                from repro.smt.cachestore import merge_wire_entries

                merged = merge_wire_entries(self.cache, seed_entries)
                self.exported_keys.update(merged)

    def context_for(self, app_index: int) -> "ApplicationContext":
        context = self.contexts.get(app_index)
        if context is None:
            from repro.apps.registry import get_application
            from repro.sched.context import build_application_context

            context = build_application_context(
                app_index, get_application(self.application_names[app_index])
            )
            self.contexts[app_index] = context
        return context

    def triager_for(self, app_index: int):
        """Lazy per-⟨worker, application⟩ witness triager."""
        triager = self.triagers.get(app_index)
        if triager is None:
            from repro.triage.engine import WitnessTriager

            context = self.context_for(app_index)
            triager = WitnessTriager(
                context.application,
                detector=context.detector,
                minimize=self.minimize_witnesses,
            )
            self.triagers[app_index] = triager
        return triager


_STATE: Optional[_WorkerState] = None


def _worker_init(
    application_names: List[str],
    diode,
    use_cache: bool,
    seed_entries: List[dict],
    triage: bool = False,
    minimize_witnesses: bool = True,
    trace_dir: Optional[str] = None,
    events: bool = True,
    heartbeat_seconds: float = 0.5,
    event_queue=None,
) -> None:
    global _STATE
    _STATE = _WorkerState(
        application_names,
        diode,
        use_cache,
        seed_entries,
        triage,
        minimize_witnesses,
        trace_dir,
        events,
        heartbeat_seconds,
        event_queue,
    )


def _worker_run(
    unit: CampaignUnit,
) -> Tuple[
    SiteResultPayload, List[dict], Tuple[int, ...], Optional[dict], dict, dict
]:
    """Analyze one unit in the worker; return payload + cache/witness/metric/event deltas."""
    from repro.core.engine import analyze_site
    from repro.obs.events import EVENTS, diff_event_wires, unit_lifecycle
    from repro.obs.metrics import METRICS, diff_snapshots
    from repro.obs.trace import TRACER

    state = _STATE
    if state is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("process backend worker used before initialization")
    context = state.context_for(unit.app_index)
    with unit_lifecycle(
        unit.application_name, unit.site_name, "process"
    ) as finish_attrs:
        with TRACER.span(
            "unit",
            application=unit.application_name,
            site=unit.site_name,
            backend="process",
        ):
            result = analyze_site(
                context.application,
                context.sites[unit.site_index],
                state.diode,
                solver_cache=state.cache,
                detector=context.detector,
                field_mapper=context.mapper,
            )
        finish_attrs["classification"] = result.classification.value
    METRICS.counter("campaign.units_completed").inc()

    delta: List[dict] = []
    stats_delta: Tuple[int, ...] = (0,) * _STATS_FIELDS
    if state.cache is not None:
        from repro.smt.cachestore import export_wire_entries

        delta, keys = export_wire_entries(state.cache, exclude=state.exported_keys)
        state.exported_keys.update(keys)
        mark = state.cache.stats_snapshot()
        stats_delta = tuple(
            now - before for now, before in zip(mark, state.stats_mark)
        )
        state.stats_mark = mark

    witness_wire: Optional[dict] = None
    if state.triage and result.bug_report is not None:
        record = state.triager_for(unit.app_index).triage(
            context.sites[unit.site_index], result.bug_report
        )
        witness_wire = None if record is None else record.to_wire()

    # Last, so the deltas also cover triage/cache work done above.  The
    # event delta carries exact counts for everything this worker emitted
    # since the previous unit — including the high-rate cache.* events the
    # live queue deliberately does not forward.
    snapshot = METRICS.snapshot()
    metrics_wire = diff_snapshots(state.metrics_mark, snapshot)
    state.metrics_mark = snapshot
    events_snapshot = EVENTS.snapshot()
    events_wire = diff_event_wires(state.events_mark, events_snapshot)
    state.events_mark = events_snapshot
    return (
        SiteResultPayload.from_site_result(result),
        delta,
        stats_delta,
        witness_wire,
        metrics_wire,
        events_wire,
    )


class ProcessBackend(Backend):
    """Fan units out over ``request.jobs`` worker processes."""

    name = "process"

    def run_units(self, request: UnitRunRequest) -> Dict[Slot, object]:
        import threading

        from repro.obs import events as ev

        seed_entries: List[dict] = []
        if request.cache is not None:
            from repro.smt.cachestore import export_wire_entries

            seed_entries, _ = export_wire_entries(request.cache)

        # The live side channel: workers forward streaming-class event
        # records (lifecycle, heartbeat, worker up/down) onto a managed
        # queue *while units run*, and the drainer thread ingests them into
        # the parent stream so progress rendering and straggler detection
        # see worker units mid-flight.  A Manager proxy queue is used
        # because a plain multiprocessing.Queue cannot ride through
        # ProcessPoolExecutor initargs.  Counts are NOT taken from the
        # queue (ingest never counts); they arrive exactly via the per-unit
        # event wire deltas merged below.
        manager = None
        event_queue = None
        drainer = None
        worker_pids: set = set()
        if request.events:
            import multiprocessing

            manager = multiprocessing.Manager()
            event_queue = manager.Queue()

            def drain() -> None:
                while True:
                    try:
                        record = event_queue.get()
                    except (EOFError, OSError):  # pragma: no cover - teardown
                        return
                    if record is None:
                        return
                    if isinstance(record, dict):
                        pid = record.get("pid")
                        if isinstance(pid, int):
                            worker_pids.add(pid)
                        ev.EVENTS.ingest(record)

            drainer = threading.Thread(
                target=drain, name="repro-event-drain", daemon=True
            )
            drainer.start()

        try:
            with ProcessPoolExecutor(
                max_workers=request.worker_count(),
                initializer=_worker_init,
                initargs=(
                    list(request.application_names),
                    request.diode,
                    request.cache is not None,
                    seed_entries,
                    request.triage,
                    request.minimize_witnesses,
                    request.trace_dir,
                    request.events,
                    request.heartbeat_seconds,
                    event_queue,
                ),
            ) as executor:
                futures = [
                    executor.submit(_worker_run, unit) for unit in request.units
                ]
                payloads = drain_futures(request.units, futures)
        finally:
            if event_queue is not None:
                # Unblock and retire the drainer even when a unit failed,
                # then mark every worker that announced itself as down (the
                # pool is closed here, so the processes are gone; workers
                # have no shutdown hook of their own).
                try:
                    event_queue.put(None)
                except Exception:  # pragma: no cover - manager already dead
                    pass
                drainer.join(timeout=10)
                for pid in sorted(worker_pids):
                    ev.EVENTS.emit(ev.WORKER_DOWN, worker_pid=pid)
            if manager is not None:
                manager.shutdown()

        from repro.obs.metrics import METRICS

        results: Dict[Slot, object] = {}
        for unit, (
            payload,
            delta,
            stats_delta,
            witness_wire,
            metrics_wire,
            events_wire,
        ) in zip(request.units, payloads):
            slot = (unit.app_index, unit.site_index)
            site = request.contexts[unit.app_index].sites[unit.site_index]
            results[slot] = payload.to_site_result(site)
            if request.cache is not None:
                if delta:
                    from repro.smt.cachestore import merge_wire_entries

                    merge_wire_entries(request.cache, delta)
                request.cache.add_external_stats(*stats_delta)
            if request.triage and payload.bug_report is not None:
                request.witness_results[slot] = witness_wire
            # Merge order cannot matter: counters/histogram buckets are
            # integers and add, gauges take max (see repro.obs.metrics);
            # event counts are integers and add (see repro.obs.events).
            METRICS.merge(metrics_wire)
            ev.EVENTS.merge(events_wire)
        return results
