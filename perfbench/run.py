"""The repository benchmark: closed-loop passes, each in a fresh interpreter.

    python3 perfbench/run.py --workload registry-cold --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One client process runs one pass at a time; the next pass starts when the
previous one returns.  Every pass is a fresh ``passrun.py`` interpreter,
because the CLI user always starts cold and repeated in-process campaigns
warm the hash-cons table and term memos.  Passes repeat until ``--seconds``
have elapsed, at least 100 sites have been analyzed (so p90 has ten samples
beyond it) and at least three passes ran.  Pass ``i`` of a run with seed
``s`` gets the inputs of seed ``s * 1000 + i`` (a registry order, or a set
of guarded programs), so one run averages over many inputs and its medians
depend little on the seed itself.

``--trace 0`` reports the end-to-end metrics with nothing installed in the
passes.  ``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Metric
names, units and bounds come from ``BENCHMARK.json``; ``METRICS.md`` beside
this file says what each one measures.  Every pass is checked by
``oracle.py``; the last stdout line is the JSON result, and the exit code is
non-zero if any site failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import guarded  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("registry-cold", "registry-warm-process", "guarded-chains")
MIN_PASSES = 3
MIN_SITES = 100
#: Store populations per registry-warm-process run; set-up reports their median.
POPULATIONS = 3
#: No pass may start after this many seconds, so a run ends well within 180 s.
HARD_CAP_S = 140.0
#: Workloads whose pass interpreter runs on one CPU.  The thread backend's
#: workers share the GIL, so a second CPU adds nothing but cross-CPU GIL
#: hand-offs, whose wake-up latency on the reference 2-vCPU VM swung the
#: registry campaign between 0.7 s and 1.5 s for minutes at a time.
ONE_CPU = ("registry-cold",)
#: Per-layer counts that are not exactly repeatable across passes (the
#: portfolio's model sampler is unseeded): reported with their min and max.
UNSTEADY_COUNTS = ("smt.bitblast_calls", "smt.cdcl_conflicts")


class BenchmarkError(RuntimeError):
    """A run cannot produce its metrics (setup failed, no pass completed, too few sites)."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def reportable(n: int, q: float, beyond: int = 10) -> bool:
    """Whether a sample of ``n`` has at least ``beyond`` values above its ``q`` percentile."""
    return n > 0 and n - math.ceil(q * n) >= beyond


def load_spec(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(HERE, "_work", f"{workload}-{os.getpid()}")
        #: Kept after the run: one spans file per traced pass.
        self.trace_dir = os.path.join(HERE, "_work", f"trace-{workload}")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.passes: List[dict] = []
        self.populations: List[float] = []
        self.launched = 0

    # ------------------------------------------------------------------
    def pass_seed(self, index: int) -> int:
        """Inputs of pass ``index``; a traced run repeats one input set, so
        its overhead ratio and its count ranges compare like with like."""
        return self.seed * 1000 + (0 if self.trace else index)

    def _launch(self, seed: int, extra: List[str], deadline: float,
                may_pin: bool = True) -> dict:
        """Run one pass interpreter; return its JSON plus the launch mark."""
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Keep the pass's temporary files (the process backend's manager
        # socket) in the checkout when "<tmp>/pymp-XXXXXXXX/listener-XXXXXXXX"
        # fits the 107-byte AF_UNIX path limit.
        tmp = os.path.join(HERE, "_work", "tmp")
        if len(tmp) + 40 <= 107:
            os.makedirs(tmp, exist_ok=True)
            env["TMPDIR"] = tmp
        pin = None
        if may_pin and self.workload in ONE_CPU and hasattr(os, "sched_setaffinity"):
            cpu = min(os.sched_getaffinity(0))
            pin = functools.partial(os.sched_setaffinity, 0, {cpu})
        launched = time.monotonic()
        command = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", self.workload,
                   "--seed", str(seed), "--launched", repr(launched)] + extra
        # A session of its own, so a timeout can stop the pass's pool workers too.
        child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True, start_new_session=True,
                                 preexec_fn=pin)
        try:
            stdout, stderr = child.communicate(timeout=max(1.0, deadline - launched))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
        finally:
            self._reap(child.pid)
        exited = time.monotonic()
        lines = stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            raise RuntimeError(f"exit {child.returncode}: {tail[0]}")
        out = json.loads(lines[-1])
        out["launched"] = launched
        out["exited"] = exited
        out["pinned"] = pin is not None
        return out

    @staticmethod
    def _reap(pgid: int) -> None:
        """Stop anything the pass left behind in its process group."""
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def _expected_sites(self) -> int:
        return guarded.PROGRAMS if self.workload == "guarded-chains" else oracle.PAPER_SITES

    def _check(self, seed: int, out: Optional[dict], error: Optional[str]) -> None:
        if out is None:
            attempted, failed, problems = oracle.crashed(self._expected_sites(), error or "")
        elif self.workload == "guarded-chains":
            attempted, failed, problems = oracle.check_guarded(out, seed)
        else:
            attempted, failed, problems = oracle.check_registry(out)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    # ------------------------------------------------------------------
    def _store(self, index: int) -> str:
        return os.path.join(self.work, f"store-{index}")

    def setup(self, deadline: float) -> None:
        """Fill the warm store (registry-warm-process) several times; time each."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        if self.trace:
            shutil.rmtree(self.trace_dir, ignore_errors=True)
            os.makedirs(self.trace_dir)
        if self.workload != "registry-warm-process":
            return
        for index in range(POPULATIONS):
            try:
                out = self._launch(self.pass_seed(0), ["--store", self._store(index)], deadline)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                raise BenchmarkError(f"store population failed: {exc}") from exc
            self.populations.append(out["exited"] - out["launched"])

    def one_pass(self, traced: bool, deadline: float, may_pin: bool = True) -> None:
        extra: List[str] = []
        if self.workload == "registry-warm-process":
            # Every pass starts from the same store state.
            store = os.path.join(self.work, "pass-store")
            shutil.rmtree(store, ignore_errors=True)
            shutil.copytree(self._store(0), store)
            extra += ["--store", store]
        if traced:
            extra += ["--trace-file", os.path.join(self.trace_dir, f"pass-{self.launched}.jsonl")]
        seed = self.pass_seed(self.launched)
        self.launched += 1
        out: Optional[dict] = None
        error: Optional[str] = None
        try:
            out = self._launch(seed, extra, deadline, may_pin)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            error = str(exc)
        self._check(seed, out, error)
        if out is not None:
            out["traced"] = traced
            self.passes.append(out)

    def execute(self) -> None:
        started = time.monotonic()
        deadline = started + HARD_CAP_S
        try:
            self.setup(deadline)
            first = time.monotonic()
            while True:
                self.one_pass(self.trace and self.launched % 2 == 0, deadline + 30)
                done = (time.monotonic() - first >= self.seconds
                        and len(self.passes) >= MIN_PASSES + self.trace
                        and (self.trace or self.site_count() >= MIN_SITES))
                if done or time.monotonic() > deadline:
                    break
            if self.trace and self.workload in ONE_CPU:
                # Not gated: what the pinned workload's user sees unpinned.
                self.one_pass(False, deadline + 30, may_pin=False)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    # ------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        timed = [p for p in self.passes if not p["traced"]]
        if not timed:
            raise BenchmarkError("no pass completed")
        seconds = [site["seconds"] for p in timed for site in p["sites"]]
        if not reportable(len(seconds), 0.9):
            raise BenchmarkError(f"only {len(seconds)} sites: too few for p90")
        setup = statistics.median(p["ready"] - p["launched"] for p in timed)
        if self.populations:
            setup += statistics.median(self.populations)
        return {
            "wall_s": statistics.median(p["wall_s"] for p in timed),
            "site_s_p50": percentile(seconds, 0.5),
            "site_s_p90": percentile(seconds, 0.9),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
            "setup_s": setup,
        }

    def per_layer(self) -> Dict[str, float]:
        traced = [p for p in self.passes if p["traced"]]
        untraced = [p for p in self.passes if not p["traced"]]
        plain = [p for p in untraced if traced and p["pinned"] == traced[0]["pinned"]]
        unpinned = [p for p in untraced if not p["pinned"]]
        if not plain or not unpinned:
            raise BenchmarkError("a traced run needs traced, untraced and unpinned passes")
        out = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
        for name in UNSTEADY_COUNTS:
            values = [p["layers"][name] for p in traced]
            out[f"{name}.min"] = min(values)
            out[f"{name}.max"] = max(values)
        out["obs.trace_overhead"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in plain))
        out["sched.unpinned_wall_s"] = statistics.median(p["wall_s"] for p in unpinned)
        return out

    def site_count(self) -> int:
        return sum(len(p["sites"]) for p in self.passes if not p["traced"])


def result(run: Run, spec: dict) -> dict:
    """The result object printed as the last stdout line of a run."""
    section = "per_layer" if run.trace else "end_to_end"
    values = run.per_layer() if run.trace else run.end_to_end()
    metrics = {}
    for metric in spec[section]:
        if metric["name"] not in values:
            raise BenchmarkError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def summarize(run: Run, payload: dict, stream) -> None:
    """Human-readable lines: every metric with its unit, and the failures."""
    sites = run.site_count()
    print(f"{run.workload} seed={run.seed}: {len(run.passes)} passes, {sites} timed sites "
          f"({sites - math.ceil(0.9 * sites)} beyond p90)", file=stream)
    for name, metric in payload["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}", file=stream)
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  fail_ratio {run.failed}/{run.attempted} = {ratio:.4f}", file=stream)
    for problem in run.problems[:20]:
        print(f"  FAIL {problem}", file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro beside the benchmark; run it from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    payloads = []
    for workload in workloads:
        run = Run(workload, args.seed, args.seconds, bool(args.trace))
        try:
            run.execute()
            payload = result(run, spec)
        except BenchmarkError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            for problem in run.problems[:20]:
                print(f"  FAIL {problem}", file=sys.stderr)
            return 2
        summarize(run, payload, sys.stderr if args.workload != "all" else sys.stdout)
        payloads.append((workload, payload))
    if args.workload == "all":
        payload = {
            "correct": all(p["correct"] for _, p in payloads),
            "attempted": sum(p["attempted"] for _, p in payloads),
            "failed": sum(p["failed"] for _, p in payloads),
            "metrics": {f"{w}.{name}": metric for w, p in payloads
                        for name, metric in p["metrics"].items()},
        }
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
