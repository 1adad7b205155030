"""Enforcement-loop benchmark: the flattened solving hot path.

Registry-shaped guarded-allocation programs whose checksum/mask sanity
checks defeat the incomplete portfolio layers, so the enforcement loop's
terminating UNSAT is proved by the session's assumption-based CDCL.  Each
site's enforcement runs :data:`HARD_PASSES` times on the legacy solving
stack (:func:`repro.smt.hotpath.legacy_hot_path`) and on the flattened
one.  Classifications must be byte-identical across every pass, and a
:data:`MIN_HOTPATH_SPEEDUP` wall-clock floor is enforced (the flattening
PR's acceptance gate).

Emits a machine-readable ``BENCH_enforcement.json`` artifact; set
``BENCH_ARTIFACT_DIR`` to redirect it.  Standalone::

    PYTHONPATH=src python benchmarks/bench_enforcement.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from bench_campaign import write_artifact
from repro import __version__
from repro.apps.appbase import Application
from repro.core.detection import ErrorDetector
from repro.core.engine import _better_outcome
from repro.core.enforcement import EnforcementResult, GoalDirectedEnforcer
from repro.core.fieldmap import FieldMapper
from repro.core.inputs import InputGenerator
from repro.core.report import classification_from_enforcement
from repro.core.sites import identify_target_sites
from repro.core.target import extract_target_observations
from repro.formats.fields import Endianness, FieldKind, FieldSpec
from repro.formats.spec import FormatSpec
from repro.lang.program import Program
from repro.smt.solver import TELEMETRY, PortfolioSolver

#: Enforcement passes per site; repeating the UNSAT tail lengthens the
#: measured stretch of CDCL work.
HARD_PASSES = 3

#: Number of constant-varied CDCL-hard guarded programs.
HARD_VARIANTS = 3

#: Required wall-clock speedup of the flattened solving hot path over the
#: legacy arm on the CDCL-hard chains (the standalone CI gate; measured
#: ~5.9x on the reference machine).
MIN_HOTPATH_SPEEDUP = 5.0

#: Looser floor for the pytest twin, which runs inside the full benchmark
#: suite where background load can squeeze the measurement.
SUITE_MIN_HOTPATH_SPEEDUP = 3.0


# ----------------------------------------------------------------------
# Arm harness
# ----------------------------------------------------------------------
@dataclass
class ArmMeasurement:
    """One arm (legacy or flat) of the workload."""

    label: str
    wall_seconds: float
    #: Per-pass classification maps: application -> site -> classification.
    classifications: List[Dict[str, Dict[str, str]]]
    telemetry: Dict[str, float]

    @property
    def conflicts(self) -> int:
        return int(self.telemetry["cdcl_conflicts"])

    @property
    def checks(self) -> int:
        """Solver checks the enforcement runs made."""
        return int(self.telemetry["queries"])


def _classify(results: List[EnforcementResult]) -> str:
    best = results[0]
    for candidate in results[1:]:
        if _better_outcome(candidate, best):
            best = candidate
    return classification_from_enforcement(best).value


def _run_applications(
    applications: List[Application], label: str, passes: int
) -> ArmMeasurement:
    """Drive every site's enforcement ``passes`` times, uncached.

    Mirrors the campaign's setup — one detector and field mapper per
    application, one enforcer per site — but without a solver cache, so
    every pass repeats the complete-backend work the arms compare.
    """
    classifications: List[Dict[str, Dict[str, str]]] = [
        {} for _ in range(passes)
    ]
    TELEMETRY.reset()
    started = time.perf_counter()
    for app in applications:
        mapper = FieldMapper(app.format_spec)
        detector = ErrorDetector(app.program, app.seed_input)
        generator = InputGenerator(app.seed_input, app.format_spec)
        for site in identify_target_sites(app.program, app.seed_input):
            observations = extract_target_observations(
                app.program,
                app.seed_input,
                site,
                field_mapper=mapper,
                max_observations=2,
            )
            enforcer = GoalDirectedEnforcer(PortfolioSolver(), generator, detector)
            for pass_index in range(passes):
                results = []
                for observation in observations:
                    result = enforcer.run(observation)
                    results.append(result)
                    if result.found_overflow:
                        break
                classifications[pass_index].setdefault(app.name, {})[
                    site.name
                ] = _classify(results)
    return ArmMeasurement(
        label=label,
        wall_seconds=time.perf_counter() - started,
        classifications=classifications,
        telemetry=TELEMETRY.snapshot(),
    )


# ----------------------------------------------------------------------
# The workload: CDCL-hard guarded chains
# ----------------------------------------------------------------------
def _hard_application(variant: int) -> Application:
    """A guarded allocation whose sanity checks only the CDCL can reason on.

    The checksum guards pin exact low-bit patterns of ``w``/``h`` sums (the
    regime interval propagation and boundary sampling cannot decide), and
    the mask guards bound the high bytes so that once every guard is
    enforced the overflow target is infeasible — an UNSAT tail proved by
    the session's assumption-based CDCL.  The square guard exists purely
    to keep that tail *expensive*: no square is ``5 mod 32``, so flipping
    the branch is an UNSAT query that costs the CDCL real conflicts even
    under the structurally-hashed encoder (which refutes the plain
    checksum tail by root propagation alone).
    """
    w0, h0 = 37 + 8 * variant, 91 + 4 * variant
    checksum1 = (w0 + h0) & 255
    checksum2 = (w0 * 3 + h0) & 127
    source = f"""
proc main() {{
  w = (input(4) << 8) | input(5);
  h = (input(6) << 8) | input(7);
  if (((w + h) & 255) != {checksum1}) {{ halt "checksum1"; }}
  if (((w * 3 + h) & 127) != {checksum2}) {{ halt "checksum2"; }}
  if (((w * w) & 31) == 5) {{ halt "square"; }}
  if ((w & 65280) != 0) {{ halt "wmask"; }}
  if ((h & 65280) != 0) {{ halt "hmask"; }}
  buf = alloc(w * h * 1024) @ "hard.c@{variant}";
}}
"""
    spec = FormatSpec(
        f"hard{variant}",
        [
            FieldSpec("/magic", 0, 4, FieldKind.MAGIC, mutable=False),
            FieldSpec("/w", 4, 2, FieldKind.UINT, Endianness.BIG),
            FieldSpec("/h", 6, 2, FieldKind.UINT, Endianness.BIG),
        ],
    )
    seed = b"HARD" + w0.to_bytes(2, "big") + h0.to_bytes(2, "big")
    return Application(
        name=f"Hard{variant}",
        program=Program.from_source(source, name=f"hard{variant}"),
        format_spec=spec,
        seed_input=seed,
        expectations=[],
    )


def run_hard_chains(label: str) -> ArmMeasurement:
    applications = [_hard_application(v) for v in range(HARD_VARIANTS)]
    return _run_applications(applications, label, passes=HARD_PASSES)


def run_hotpath_speedup() -> Tuple[ArmMeasurement, ArmMeasurement]:
    """The CDCL-hard chains on the legacy vs the flattened hot path.

    Both arms run end-to-end — interpreter, enforcement loop, sessions,
    CDCL — differing only in the solving hot path
    (:func:`repro.smt.hotpath.legacy_hot_path` swaps in the object-graph
    CDCL, the recursive term interpreter and the unhashed Tseitin
    encoder).
    """
    from repro.smt.hotpath import legacy_hot_path

    with legacy_hot_path():
        legacy = run_hard_chains("legacy")
    return legacy, run_hard_chains("flat")


def speedup(legacy: ArmMeasurement, flat: ArmMeasurement) -> float:
    if flat.wall_seconds <= 0:
        return float("inf")
    return legacy.wall_seconds / flat.wall_seconds


# ----------------------------------------------------------------------
# Reporting and gates
# ----------------------------------------------------------------------
def print_hotpath(legacy: ArmMeasurement, flat: ArmMeasurement) -> None:
    print("\n=== CDCL-hard chains: legacy hot path vs flattened core ===")
    for arm in (legacy, flat):
        print(
            f"{arm.label:9s}: {arm.wall_seconds:6.3f}s wall, "
            f"{arm.checks} enforcement checks, "
            f"{arm.conflicts} CDCL conflicts, "
            f"{int(arm.telemetry['propagations'])} propagations"
        )
    print(
        "classifications equal: "
        f"{legacy.classifications == flat.classifications}"
    )
    print(f"wall speedup         : {speedup(legacy, flat):.2f}x")


def artifact_payload(legacy: ArmMeasurement, flat: ArmMeasurement) -> dict:
    def arm(measurement: ArmMeasurement) -> dict:
        return {
            "wall_seconds": round(measurement.wall_seconds, 4),
            "enforcement_checks": measurement.checks,
            "cdcl_conflicts": measurement.conflicts,
            "propagations": int(measurement.telemetry.get("propagations", 0)),
            "sat_decisions": int(
                measurement.telemetry.get("sat_decisions", 0)
            ),
        }

    return {
        "benchmark": "enforcement",
        "version": __version__,
        "hard_passes": HARD_PASSES,
        "hotpath": {
            "variants": HARD_VARIANTS,
            "min_speedup": MIN_HOTPATH_SPEEDUP,
            "legacy": arm(legacy),
            "flat": arm(flat),
            "classification_parity": (
                legacy.classifications == flat.classifications
            ),
            "wall_speedup": round(speedup(legacy, flat), 2),
        },
    }


def _gate_failures(legacy: ArmMeasurement, flat: ArmMeasurement) -> List[str]:
    failures = []
    if legacy.classifications != flat.classifications:
        failures.append(
            "hot-path classifications diverge between legacy and flat arms"
        )
    if speedup(legacy, flat) < MIN_HOTPATH_SPEEDUP:
        failures.append(
            f"flattened hot path speedup {speedup(legacy, flat):.2f}x below the "
            f"{MIN_HOTPATH_SPEEDUP:.1f}x floor on the CDCL-hard chains"
        )
    return failures


# ----------------------------------------------------------------------
# pytest twin
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="enforcement")
def test_flattened_hot_path_speedup_on_hard_chains(benchmark):
    """Identical classifications; the flattening PR's wall-clock gate.

    The suite twin uses the looser floor (the standalone entry point
    enforces :data:`MIN_HOTPATH_SPEEDUP`).
    """
    legacy, flat = benchmark.pedantic(run_hotpath_speedup, rounds=1, iterations=1)
    print_hotpath(legacy, flat)
    assert legacy.classifications == flat.classifications
    assert speedup(legacy, flat) >= SUITE_MIN_HOTPATH_SPEEDUP


# ----------------------------------------------------------------------
# Standalone entry point (the CI gate)
# ----------------------------------------------------------------------
def main() -> int:
    legacy, flat = run_hotpath_speedup()
    print_hotpath(legacy, flat)

    path = write_artifact(artifact_payload(legacy, flat), name="BENCH_enforcement.json")
    print(f"\nartifact written: {path}")

    failures = _gate_failures(legacy, flat)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
