"""Traced passes: spans around each layer's public entry points.

Nothing here runs in a timed pass.  :func:`install` wraps the layer
boundaries the benchmark measures, from outside ``src/``: module-level
functions are replaced where their callers bind them, and methods are
replaced on their classes.  Every wrapped call records one span (name,
start, end, parent, per-site id) on a per-thread stack; spans stay in
memory until the pass writes them out.  :func:`layer_metrics` turns one
traced pass's spans, plus the results and counters the program already
returns, into the per-layer metrics.

Spans are recorded in the pass interpreter only.  On the process backend
the pool workers fork after the wrappers are installed, and whatever they
record stays in the worker, so that workload reports the parent-side
layers.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Reasons :class:`repro.smt.solver.SolverResult` carries, bucketed by layer.
ANSWER_BUCKETS = {
    "simplify": "simplify",
    "interval propagation": "interval",
    "interval point": "interval",
    "heuristics": "heuristics",
    "sampling": "sampling",
    "bitblast": "bitblast",
    "cache": "cache",
    "component-cache": "cache",
    "core-subsumed": "core",
}
BUCKET_NAMES = ("simplify", "interval", "heuristics", "sampling", "bitblast", "cache", "core", "other")

#: Modules that bind ``simplify`` by name; the wrapper counts outermost calls.
SIMPLIFY_CALLERS = (
    "repro.exec.concolic",
    "repro.smt.solver",
    "repro.smt.sampler",
    "repro.core.enforcement",
    "repro.core.overflow",
    "repro.core.branches",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    site: Optional[str]
    thread: int
    #: Values read from the wrapped call's arguments or result.
    info: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        site_of: Optional[Callable] = None,
        info_of: Optional[Callable] = None,
        outermost: bool = False,
    ) -> Callable:
        """``fn`` recording a span per call.

        ``site_of(args)`` names the site a span opens; nested spans inherit
        it.  ``info_of(args, result)`` attaches values to the span.  With
        ``outermost``, calls nested inside a span of the same name record
        nothing (recursive or layered callers of one entry point).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if outermost and any(span.name == name for span in stack):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            site = site_of(args) if site_of is not None else None
            if site is None and parent is not None:
                site = parent.site
            span = Span(next(self._ids), name, 0.0, 0.0, parent.id if parent else None,
                        site, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if info_of is not None:
                span.info = info_of(args, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def self_seconds(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.seconds - covered
    return result


def _patch_method(recorder: Recorder, cls, attr: str, name: str, **options) -> None:
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        wrapped = recorder.wrap(name, original.__func__, **options)
        setattr(cls, attr, classmethod(wrapped))
    else:
        setattr(cls, attr, recorder.wrap(name, original, **options))


def _patch_function(recorder: Recorder, modules, attr: str, name: str, **options) -> None:
    for module in modules:
        setattr(module, attr, recorder.wrap(name, getattr(module, attr), **options))


def install(recorder: Recorder) -> None:
    """Wrap every measured layer boundary; call before the timed call."""
    import importlib

    from repro.core.campaign import CampaignEngine
    from repro.core.detection import ErrorDetector
    from repro.core.enforcement import GoalDirectedEnforcer
    from repro.lang.program import Program
    from repro.sched.process import ProcessBackend
    from repro.sched.serial import SerialBackend
    from repro.sched.thread import ThreadBackend
    from repro.smt.cachestore import CacheStore
    from repro.smt.sampler import ModelSampler
    from repro.smt.solver import PortfolioSolver, SolverSession
    from repro.triage.corpus import CorpusStore
    from repro.triage.engine import WitnessTriager

    module = importlib.import_module
    _patch_function(
        recorder, [module("repro.core.engine")], "analyze_site", "unit",
        site_of=lambda args: f"{args[0].name}/{args[1].name}",
    )
    _patch_function(recorder, [module("repro.core.campaign")], "build_applications",
                    "lang.parse", outermost=True)
    _patch_method(recorder, Program, "from_source", "lang.program")
    _patch_function(
        recorder,
        [module("repro.core.sites"), module("repro.core.engine"), module("repro.triage.engine")],
        "identify_target_sites", "exec.taint",
    )
    _patch_function(
        recorder, [module("repro.core.engine")], "extract_target_observations",
        "exec.concolic",
        info_of=lambda args, result: {"key": [args[0].name, sorted(args[2].relevant_bytes)]},
    )
    _patch_method(recorder, ErrorDetector, "__init__", "exec.seed_run")
    _patch_method(
        recorder, ErrorDetector, "evaluate", "exec.concrete",
        info_of=lambda args, result: {"triggered": bool(result.triggers_overflow)},
    )
    _patch_method(
        recorder, GoalDirectedEnforcer, "run", "core.enforce",
        info_of=lambda args, result: {
            "enforced": result.enforced_count,
            "overflow": bool(result.found_overflow),
        },
    )
    check_info = lambda args, result: {  # noqa: E731 - one-line adapter
        "bucket": ANSWER_BUCKETS.get(result.reason, "other"),
        "unknown": bool(result.is_unknown),
    }
    _patch_method(recorder, PortfolioSolver, "check", "smt.check", info_of=check_info)
    _patch_method(recorder, SolverSession, "check", "smt.check", info_of=check_info)
    _patch_method(
        recorder, ModelSampler, "sample_one", "smt.sample", outermost=True,
        info_of=lambda args, result: {"hit": result is not None},
    )
    _patch_function(recorder, [module(name) for name in SIMPLIFY_CALLERS], "simplify",
                    "smt.simplify", outermost=True)
    _patch_method(recorder, WitnessTriager, "triage", "triage")
    for store_cls in (CacheStore, CorpusStore):
        _patch_method(recorder, store_cls, "load", "store.load")
        _patch_method(recorder, store_cls, "save", "store.save")
    for backend_cls in (SerialBackend, ThreadBackend, ProcessBackend):
        _patch_method(recorder, backend_cls, "run_units", "sched.run_units")
    _patch_method(recorder, CampaignEngine, "run", "campaign")


def _total(spans: List[Span]) -> float:
    return sum(span.seconds for span in spans)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: Recorder,
    *,
    wall_s: float,
    import_s: float,
    telemetry: Dict[str, float],
    campaign=None,
    workers: int = 0,
    worker_peak_rss_mb: float = 0.0,
    site_seconds: Iterable[float] = (),
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (names as in ``METRICS.md``)."""
    spans = list(recorder.spans)
    own = self_seconds(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    get = lambda name: by_name.get(name, [])  # noqa: E731

    out: Dict[str, float] = {}
    parse_ids = {s.id for s in get("lang.parse")}
    out["lang.parse_s"] = _total(get("lang.parse")) + _total(
        [s for s in get("lang.program") if s.parent not in parse_ids])
    out["lang.programs"] = len(get("lang.program"))
    out["startup.import_s"] = import_s

    out["exec.taint_s"] = _total(get("exec.taint"))
    out["exec.taint_calls"] = len(get("exec.taint"))
    concolic = sorted(get("exec.concolic"), key=lambda s: s.start)
    seen = set()
    repeats = 0
    for span in concolic:
        key = json.dumps(span.info["key"]) if span.info else str(span.id)
        repeats += key in seen
        seen.add(key)
    out["exec.concolic_s"] = _total(concolic)
    out["exec.concolic_calls"] = len(concolic)
    out["exec.concolic_repeat_ratio"] = _ratio(repeats, len(concolic))
    concrete = get("exec.concrete")
    out["exec.concrete_s"] = _total(concrete) + _total(get("exec.seed_run"))
    out["exec.concrete_runs"] = len(concrete) + len(get("exec.seed_run"))
    out["exec.trigger_ratio"] = _ratio(
        sum(1 for s in concrete if s.info and s.info["triggered"]), len(concrete))

    enforce = get("core.enforce")
    out["core.enforce_s"] = sum(own[s.id] for s in enforce)
    out["core.enforce_runs"] = len(enforce)
    out["core.enforced_branches"] = sum(s.info["enforced"] for s in enforce if s.info)
    out["core.overflow_ratio"] = _ratio(
        sum(1 for s in enforce if s.info and s.info["overflow"]), len(enforce))
    units_s = _total(get("sched.run_units"))
    if get("campaign"):
        out["core.outside_units_s"] = _total(get("campaign")) - units_s
    else:
        out["core.outside_units_s"] = wall_s - _total(get("unit"))

    checks = get("smt.check")
    out["smt.checks"] = len(checks)
    out["smt.check_s"] = sum(own[s.id] for s in checks)
    out["smt.unknown_ratio"] = _ratio(
        sum(1 for s in checks if s.info and s.info["unknown"]), len(checks))
    for bucket in BUCKET_NAMES:
        out[f"smt.answered.{bucket}"] = sum(
            1 for s in checks if s.info and s.info["bucket"] == bucket)
    samples = get("smt.sample")
    out["smt.sampler_s"] = _total(samples)
    out["smt.sampler_calls"] = len(samples)
    out["smt.sampler_hit_ratio"] = _ratio(
        sum(1 for s in samples if s.info and s.info["hit"]), len(samples))
    out["smt.bitblast_calls"] = telemetry.get("bitblast_calls", 0)
    out["smt.bitblast_s"] = telemetry.get("bitblast_seconds", 0.0)
    out["smt.cdcl_conflicts"] = telemetry.get("cdcl_conflicts", 0)
    out["smt.propagations"] = telemetry.get("propagations", 0)
    out["smt.simplify_calls"] = len(get("smt.simplify"))
    out["smt.simplify_s"] = _total(get("smt.simplify"))

    stats = getattr(campaign, "cache_stats", None)
    out["smt.cache_lookups"] = stats.lookups if stats is not None else 0
    out["smt.cache_hit_ratio"] = _ratio(stats.hits, stats.lookups) if stats is not None else 0.0

    triage_stats = getattr(campaign, "triage_stats", None)
    out["triage.s"] = _total(get("triage"))
    out["triage.reports"] = triage_stats.raw_reports if triage_stats is not None else 0
    out["triage.distinct"] = triage_stats.distinct if triage_stats is not None else 0

    out["store.load_s"] = _total(get("store.load"))
    out["store.save_s"] = _total(get("store.save"))
    out["store.records_loaded"] = (
        campaign.cache_loaded + campaign.corpus_loaded if campaign is not None else 0)
    out["store.records_saved"] = (
        campaign.cache_saved + campaign.corpus_saved if campaign is not None else 0)
    lock_wait = 0.0
    if campaign is not None and campaign.metrics:
        histogram = campaign.metrics.get("metrics", {}).get("store.lock_wait_seconds", {})
        lock_wait = histogram.get("sum", 0) / 1e9
    out["store.lock_wait_s"] = lock_wait

    unit_sum = sum(site_seconds)
    out["sched.run_units_s"] = units_s
    out["sched.unit_s_sum"] = unit_sum if campaign is not None else 0.0
    out["sched.workers"] = workers
    out["sched.overhead_s"] = units_s - _ratio(out["sched.unit_s_sum"], workers)
    out["sched.efficiency"] = _ratio(out["sched.unit_s_sum"], workers * units_s)
    out["sched.worker_peak_rss_mb"] = worker_peak_rss_mb

    events = getattr(campaign, "events", None) or {}
    out["obs.events"] = sum(events.get("events", {}).values())
    return out
