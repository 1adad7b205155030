"""Solver benchmark: incremental sessions and the flattened CDCL core.

Two workloads:

1. **Enforcement chains** — growing constraint chains shaped exactly like
   the enforcement loop's query sequence (an overflow target constraint β,
   then one appended sanity-check constraint per iteration, ending in
   checks that only the complete backend can decide).  The *fresh* arm
   re-solves every growing conjunction with a one-shot
   :meth:`PortfolioSolver.check` (re-simplified, re-blasted, solved from
   scratch); the *incremental* arm pushes one delta per iteration onto a
   :class:`SolverSession` (persistent bit-blaster, assumption-based CDCL
   with learned-clause retention).  The incremental arm must finish with
   *lower total CDCL conflicts* and *lower bit-blast/CDCL time*, with
   identical per-check statuses.
2. **Propagation loop** — the CDCL-bound chain queries solved on the
   legacy hot path (:func:`repro.smt.hotpath.legacy_hot_path`: object
   CDCL, recursive evaluation, unhashed gates) versus the flattened one,
   with per-arm ``propagations``/``sat_decisions`` telemetry in the
   artifact.  Identical statuses, and the flat arm strictly faster on
   bit-blast/CDCL time.

Emits a machine-readable ``BENCH_solver.json`` artifact; set
``BENCH_ARTIFACT_DIR`` to redirect it.  Standalone::

    PYTHONPATH=src python benchmarks/bench_solver.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from bench_campaign import write_artifact
from repro import __version__
from repro.smt import builder as b
from repro.smt.cache import SolverCache
from repro.smt.sampler import SamplerConfig
from repro.smt.solver import TELEMETRY, PortfolioSolver, SolverConfig

#: Number of alpha/constant-varied enforcement chains in workload 1.
CHAIN_COUNT = 4


# ----------------------------------------------------------------------
# Shared arm harness
# ----------------------------------------------------------------------
@dataclass
class ArmMeasurement:
    """One arm of a workload (fresh/incremental, or legacy/flat)."""

    label: str
    wall_seconds: float
    statuses: List[str]
    telemetry: Dict[str, float]

    @property
    def conflicts(self) -> int:
        return int(self.telemetry["cdcl_conflicts"])

    @property
    def bitblast_seconds(self) -> float:
        return float(self.telemetry["bitblast_seconds"])


def _stress_config() -> SolverConfig:
    """Tiny incomplete-layer budgets: route the chains to the CDCL backend."""
    return SolverConfig(
        sampler=SamplerConfig(
            random_attempts_per_sample=3,
            hill_climb_steps=2,
            perturbation_attempts=2,
            seed=0,
        ),
        heuristic_max_checks=4,
        bitblast_max_conflicts=100_000,
    )


# ----------------------------------------------------------------------
# Workload 1: enforcement-shaped chains through the complete backend
# ----------------------------------------------------------------------
def _enforcement_chain(variant: int):
    """One β + appended-sanity-check chain, like the enforcement loop's.

    The alignment and low-byte checksum equalities defeat the incomplete
    layers (interval corners and boundary-biased sampling never land on
    exact low-bit patterns), so every iteration reaches bit-blasting —
    the regime where a session's CNF and learned-clause reuse pays.  The
    final parity constraint contradicts the alignment check in a way
    interval propagation cannot see, so the UNSAT tail also exercises the
    complete backend.
    """
    w = b.bv_var(f"w{variant}", 16)
    h = b.bv_var(f"h{variant}", 16)
    beta = b.ugt(
        b.mul(b.zext(w, 32), b.zext(h, 32)), b.bv_const(0x00FFFFFF, 32)
    )
    deltas = [
        b.ult(w, b.bv_const(0xC000 - variant * 64, 16)),
        b.ult(h, b.bv_const(0xB000 + variant * 32, 16)),
        b.eq(b.bvand(w, b.bv_const(0x0007, 16)), b.bv_const(5, 16)),
        b.eq(b.bvand(h, b.bv_const(0x0003, 16)), b.bv_const(2, 16)),
        b.ult(b.add(w, h), b.bv_const(0x5000, 16)),
        b.eq(
            b.bvand(b.add(w, h), b.bv_const(0x00FF, 16)),
            b.bv_const((0x47 + variant) & 0xFF, 16),
        ),
        b.eq(b.bvand(w, b.bv_const(1, 16)), b.bv_const(0, 16)),
    ]
    return beta, deltas


def run_enforcement_chains(incremental: bool) -> ArmMeasurement:
    """Replay the chains through one arm; returns per-arm measurements."""
    cache = SolverCache()
    solver = PortfolioSolver(_stress_config(), cache=cache)
    statuses: List[str] = []
    TELEMETRY.reset()
    started = time.perf_counter()
    for variant in range(CHAIN_COUNT):
        beta, deltas = _enforcement_chain(variant)
        if incremental:
            session = solver.open_session()
            session.push(beta)
            statuses.append(session.check().status)
            for delta in deltas:
                session.push(delta)
                statuses.append(session.check().status)
        else:
            constraints = [beta]
            statuses.append(solver.check(constraints).status)
            for delta in deltas:
                constraints.append(delta)
                statuses.append(solver.check(constraints).status)
    return ArmMeasurement(
        label="incremental" if incremental else "fresh",
        wall_seconds=time.perf_counter() - started,
        statuses=statuses,
        telemetry=TELEMETRY.snapshot(),
    )


# ----------------------------------------------------------------------
# Workload 2: flattened propagation loop vs the legacy hot path
# ----------------------------------------------------------------------
def run_hotpath_arms() -> Tuple[ArmMeasurement, ArmMeasurement]:
    """Before/after arms of the solving hot-path flattening.

    The *legacy* arm re-solves the CDCL-bound chain queries on the
    pre-flattening stack (object-graph CDCL, recursive term interpreter,
    fresh-variable Tseitin gates) via
    :func:`repro.smt.hotpath.legacy_hot_path`; the *flat* arm runs the
    current one.  Telemetry makes the propagation-loop work visible on
    both sides (``propagations``/``sat_decisions`` per arm), and the gate
    demands identical statuses with the flat arm strictly faster on
    bit-blast/CDCL time.
    """
    from repro.smt.hotpath import legacy_hot_path

    config = _stress_config()
    systems = []
    for variant in range(CHAIN_COUNT):
        beta, deltas = _enforcement_chain(variant)
        systems.append([beta] + deltas)
        # CDCL-searching companions: exact squares force real decisions
        # (the sampler would have to guess the root), mod-32 non-residues
        # force real conflicts (squares mod 32 are {0,1,4,9,16,17,25}).
        root = 1234 + 17 * variant
        x = b.bv_var(f"hp{variant}", 16)
        systems.append([b.eq(b.mul(x, x), b.bv_const((root * root) & 0xFFFF, 16))])
        y = b.bv_var(f"hq{variant}", 16)
        systems.append(
            [
                b.eq(
                    b.bvand(b.mul(y, y), b.bv_const(31, 16)),
                    b.bv_const(5, 16),
                )
            ]
        )

    def arm(label: str) -> ArmMeasurement:
        cache = SolverCache()
        solver = PortfolioSolver(config, cache=cache)
        TELEMETRY.reset()
        started = time.perf_counter()
        statuses = [solver.check(system).status for system in systems]
        return ArmMeasurement(
            label=label,
            wall_seconds=time.perf_counter() - started,
            statuses=statuses,
            telemetry=TELEMETRY.snapshot(),
        )

    with legacy_hot_path():
        legacy = arm("legacy")
    flat = arm("flat")
    return legacy, flat


# ----------------------------------------------------------------------
# Reporting and gates
# ----------------------------------------------------------------------
def print_chains(fresh: ArmMeasurement, incremental: ArmMeasurement) -> None:
    print("\n=== Enforcement chains: one-shot check vs incremental session ===")
    for arm in (fresh, incremental):
        print(
            f"{arm.label:12s}: {arm.wall_seconds:6.3f}s wall, "
            f"{arm.bitblast_seconds:6.3f}s bitblast/CDCL, "
            f"{arm.conflicts} conflicts, "
            f"{int(arm.telemetry['bitblast_calls'])} complete-backend calls"
        )
    print(f"statuses equal     : {fresh.statuses == incremental.statuses}")


def print_hotpath(legacy: ArmMeasurement, flat: ArmMeasurement) -> None:
    print("\n=== Propagation loop: legacy hot path vs flattened core ===")
    for arm in (legacy, flat):
        print(
            f"{arm.label:12s}: {arm.wall_seconds:6.3f}s wall, "
            f"{arm.bitblast_seconds:6.3f}s bitblast/CDCL, "
            f"{int(arm.telemetry['propagations'])} propagations, "
            f"{int(arm.telemetry['sat_decisions'])} decisions, "
            f"{arm.conflicts} conflicts"
        )
    print(f"statuses equal     : {legacy.statuses == flat.statuses}")
    if flat.wall_seconds > 0:
        print(f"wall speedup       : {legacy.wall_seconds / flat.wall_seconds:.2f}x")


def artifact_payload(
    chain_fresh: ArmMeasurement,
    chain_incremental: ArmMeasurement,
    hotpath_legacy: ArmMeasurement,
    hotpath_flat: ArmMeasurement,
) -> dict:
    def arm(measurement: ArmMeasurement) -> dict:
        return {
            "wall_seconds": round(measurement.wall_seconds, 4),
            "bitblast_seconds": round(measurement.bitblast_seconds, 4),
            "cdcl_conflicts": measurement.conflicts,
            "bitblast_calls": int(measurement.telemetry["bitblast_calls"]),
            "propagations": int(measurement.telemetry.get("propagations", 0)),
            "sat_decisions": int(
                measurement.telemetry.get("sat_decisions", 0)
            ),
        }

    return {
        "benchmark": "solver",
        "version": __version__,
        "enforcement_chains": {
            "fresh": arm(chain_fresh),
            "incremental": arm(chain_incremental),
            "statuses_equal": chain_fresh.statuses == chain_incremental.statuses,
        },
        "propagation_loop": {
            "legacy": arm(hotpath_legacy),
            "flat": arm(hotpath_flat),
            "statuses_equal": hotpath_legacy.statuses == hotpath_flat.statuses,
            "wall_speedup": round(
                hotpath_legacy.wall_seconds / hotpath_flat.wall_seconds, 2
            )
            if hotpath_flat.wall_seconds > 0
            else None,
        },
    }


def _gate_failures(
    chain_fresh: ArmMeasurement,
    chain_incremental: ArmMeasurement,
    hotpath_legacy: ArmMeasurement,
    hotpath_flat: ArmMeasurement,
) -> List[str]:
    failures = []
    if chain_fresh.statuses != chain_incremental.statuses:
        failures.append("enforcement-chain statuses diverge between arms")
    if chain_incremental.conflicts >= chain_fresh.conflicts:
        failures.append(
            f"incremental CDCL conflicts {chain_incremental.conflicts} not below "
            f"fresh {chain_fresh.conflicts}"
        )
    if chain_incremental.bitblast_seconds >= chain_fresh.bitblast_seconds:
        failures.append(
            f"incremental bitblast/CDCL time {chain_incremental.bitblast_seconds:.3f}s "
            f"not below fresh {chain_fresh.bitblast_seconds:.3f}s"
        )
    if hotpath_legacy.statuses != hotpath_flat.statuses:
        failures.append(
            "propagation-loop statuses diverge between legacy and flat arms"
        )
    if hotpath_flat.bitblast_seconds >= hotpath_legacy.bitblast_seconds:
        failures.append(
            f"flat bitblast/CDCL time {hotpath_flat.bitblast_seconds:.3f}s "
            f"not below legacy {hotpath_legacy.bitblast_seconds:.3f}s"
        )
    if int(hotpath_flat.telemetry["propagations"]) <= 0:
        failures.append("flat arm recorded no propagation-loop telemetry")
    return failures


# ----------------------------------------------------------------------
# pytest twins
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="solver")
def test_enforcement_chains_incremental_wins(benchmark):
    """Sessions beat fresh re-solving on conflicts and bitblast time."""

    def both():
        return run_enforcement_chains(False), run_enforcement_chains(True)

    fresh, incremental = benchmark.pedantic(both, rounds=1, iterations=1)
    print_chains(fresh, incremental)
    assert fresh.statuses == incremental.statuses
    assert incremental.conflicts < fresh.conflicts
    assert incremental.bitblast_seconds < fresh.bitblast_seconds


@pytest.mark.benchmark(group="solver")
def test_flattened_hot_path_beats_the_legacy_arm(benchmark):
    """The flattened core answers the chain queries identically, faster."""
    legacy, flat = benchmark.pedantic(run_hotpath_arms, rounds=1, iterations=1)
    print_hotpath(legacy, flat)
    assert legacy.statuses == flat.statuses
    assert flat.bitblast_seconds < legacy.bitblast_seconds
    assert flat.telemetry["propagations"] > 0
    assert flat.telemetry["sat_decisions"] > 0


# ----------------------------------------------------------------------
# Standalone entry point (the CI gate)
# ----------------------------------------------------------------------
def main() -> int:
    chain_fresh = run_enforcement_chains(False)
    chain_incremental = run_enforcement_chains(True)
    print_chains(chain_fresh, chain_incremental)

    hotpath_legacy, hotpath_flat = run_hotpath_arms()
    print_hotpath(hotpath_legacy, hotpath_flat)

    measurements = (chain_fresh, chain_incremental, hotpath_legacy, hotpath_flat)
    path = write_artifact(artifact_payload(*measurements), name="BENCH_solver.json")
    print(f"\nartifact written: {path}")

    failures = _gate_failures(*measurements)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
