"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Imports ``repro``, builds the workload's inputs from the seed, makes the one
timed call, and prints one JSON object on stdout: timing marks, each site's
verdict and discovery time, the witnesses to re-check, and (traced passes)
the per-layer metrics.  Correctness is judged by the parent, not here.

    python3 perfbench/passrun.py --workload registry-cold --seed 1 --launched <monotonic>
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import repro  # noqa: E402  (first import of the program: the startup mark)

IMPORTED = time.monotonic()

import resource  # noqa: E402

import guarded  # noqa: E402
import layers  # noqa: E402

#: SiteClassification value -> the oracle's verdict names.
VERDICTS = {
    "diode_exposes_overflow": "exposed",
    "target_constraint_unsatisfiable": "unsatisfiable",
    "sanity_checks_prevent_overflow": "prevented",
}
JOBS = 2


def registry_order(seed: int):
    """The registry's application names, permuted by ``seed``."""
    import random

    names = repro.application_names()
    random.Random(seed).shuffle(names)
    return names


def campaign_config(workload: str, seed: int, store: str):
    from repro.core.campaign import CampaignConfig

    config = CampaignConfig(jobs=JOBS, applications=registry_order(seed))
    if workload == "registry-warm-process":
        config.backend = "process"
        config.cache_dir = os.path.join(store, "cache")
        config.corpus_dir = os.path.join(store, "corpus")
    return config


def guarded_applications(seed: int):
    from repro.apps.appbase import Application
    from repro.formats.fields import Endianness, FieldKind, FieldSpec
    from repro.formats.spec import FormatSpec
    from repro.lang.program import Program

    fields = []
    for name, offset, size in guarded.FIELDS:
        if name == "/magic":
            fields.append(FieldSpec(name, offset, size, FieldKind.MAGIC, mutable=False))
        elif name == "/payload":
            fields.append(FieldSpec(name, offset, size, FieldKind.BYTES))
        else:
            fields.append(FieldSpec(name, offset, size, FieldKind.UINT, Endianness.LITTLE))
    spec = FormatSpec("guarded", fields)
    return [
        Application(
            name=program.name,
            program=Program.from_source(program.source, name=program.name),
            format_spec=spec,
            seed_input=program.seed_input,
        )
        for program in guarded.generate(seed)
    ]


def site_record(application: str, result) -> dict:
    report = result.bug_report
    witness = report.triggering_input if report is not None else None
    return {
        "app": application,
        "tag": result.site.site_tag,
        "verdict": VERDICTS.get(result.classification.value, "unknown"),
        "seconds": result.discovery_seconds,
        "witness": witness.hex() if witness is not None else None,
    }


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("registry-cold", "registry-warm-process", "guarded-chains"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent launched this interpreter")
    parser.add_argument("--store", default="", help="store directory (registry-warm-process)")
    parser.add_argument("--trace-file", default="", help="trace this pass; write spans here")
    args = parser.parse_args(argv)

    from repro.smt.solver import TELEMETRY

    recorder = None
    if args.trace_file:
        recorder = layers.Recorder()
        layers.install(recorder)

    out = {}
    campaign = None
    workers = 0
    worker_rss = 0.0
    if args.workload == "guarded-chains":
        from repro.core import Diode

        applications = guarded_applications(args.seed)
        telemetry_mark = TELEMETRY.snapshot()
        out["ready"] = time.monotonic()
        started = time.perf_counter()
        results = [Diode().analyze(application) for application in applications]
        out["wall_s"] = time.perf_counter() - started
    else:
        from repro.core.campaign import CampaignEngine

        engine = CampaignEngine(campaign_config(args.workload, args.seed, args.store))
        telemetry_mark = TELEMETRY.snapshot()
        out["ready"] = time.monotonic()
        started = time.perf_counter()
        campaign = engine.run()
        out["wall_s"] = time.perf_counter() - started
        results = campaign.application_results
        workers = campaign.jobs
        worker_rss = peak_rss_mb(
            resource.RUSAGE_CHILDREN if campaign.backend == "process" else resource.RUSAGE_SELF)
    telemetry = TELEMETRY.snapshot()
    out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)

    if recorder is not None:
        out["layers"] = layers.layer_metrics(
            recorder,
            wall_s=out["wall_s"],
            import_s=IMPORTED - args.launched,
            telemetry={k: telemetry[k] - telemetry_mark.get(k, 0) for k in telemetry},
            campaign=campaign,
            workers=workers,
            worker_peak_rss_mb=worker_rss,
            site_seconds=[site.discovery_seconds for r in results for site in r.site_results],
        )
        recorder.write(args.trace_file)

    if campaign is not None:
        from repro.apps.registry import get_application

        # The paper's per-site ground truth, keyed by the application's
        # display name as the campaign reports it.
        out["expectations"] = {}
        for name in registry_order(args.seed):
            application = get_application(name)
            out["expectations"][application.name] = {
                e.tag: e.classification for e in application.expectations
            }
        out["distinct_witnesses"] = (
            campaign.triage_stats.distinct if campaign.triage_stats is not None else 0)
    out["sites"] = [
        site_record(result.application, site)
        for result in results
        for site in result.site_results
    ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
