"""Whole-pipeline determinism: the portfolio's sampler is seeded.

The portfolio builds its :class:`~repro.smt.sampler.ModelSampler` with the
seed of :class:`~repro.smt.solver.SolverConfig`, so analysing the same
program twice makes the same solver calls and finds the same witness.  The
programs below have checksum guards that the sampling layer has to satisfy
(or fail to, and hand over to bit-blasting) on every enforcement step; on
the unmasked program the exposed witness is a sampled model.
"""

from __future__ import annotations

import pytest

from repro.apps.appbase import Application
from repro.core import Diode
from repro.formats.fields import Endianness, FieldKind, FieldSpec
from repro.formats.spec import FormatSpec
from repro.lang.program import Program
from repro.smt.solver import TELEMETRY

SPEC = FormatSpec(
    "tiles",
    [
        FieldSpec("/magic", 0, 2, FieldKind.MAGIC, mutable=False),
        FieldSpec("/grid/cols", 2, 2, FieldKind.UINT, Endianness.LITTLE),
        FieldSpec("/grid/rows", 4, 2, FieldKind.UINT, Endianness.LITTLE),
        FieldSpec("/body", 6, 6, FieldKind.BYTES),
    ],
)

SEED_COLS, SEED_ROWS = 120, 90

SOURCE = """
proc read_le16(o) {{
  v = input(o) | (input(o + 1) << 8);
  return v;
}}

proc main() {{
  cols = read_le16(2);
  rows = read_le16(4);
{masks}  if (((cols + rows * 77) & 63) != {k1}) {{
    halt "header checksum mismatch";
  }}
  if ((((cols ^ (rows << 2)) + 21) & 15) != {k2}) {{
    halt "layout checksum mismatch";
  }}
  tiles = alloc(cols * rows * 2048) @ "tiles.c@grid";
  tiles[cols * rows * 2048 - 1] = 0;
}}
"""

#: Keep both fields below 256, so the 32-bit allocation size cannot wrap.
MASKS = """  if ((cols & 65280) != 0) {
    halt "too many columns";
  }
  if ((rows & 65280) != 0) {
    halt "too many rows";
  }
"""


def tiles_application(masked: bool) -> Application:
    source = SOURCE.format(
        masks=MASKS if masked else "",
        k1=(SEED_COLS + SEED_ROWS * 77) & 63,
        k2=((SEED_COLS ^ (SEED_ROWS << 2)) + 21) & 15,
    )
    name = "tiles-masked" if masked else "tiles"
    seed = (
        b"TL"
        + SEED_COLS.to_bytes(2, "little")
        + SEED_ROWS.to_bytes(2, "little")
        + bytes(range(6))
    )
    return Application(
        name=name,
        program=Program.from_source(source, name=name),
        format_spec=SPEC,
        seed_input=seed,
    )


def analyze_once(application: Application):
    before = TELEMETRY.snapshot()["bitblast_calls"]
    result = Diode().analyze(application)
    bitblasts = TELEMETRY.snapshot()["bitblast_calls"] - before
    return [
        (
            site.site.name,
            site.classification.value,
            site.bug_report.triggering_input if site.bug_report is not None else None,
        )
        for site in result.site_results
    ], bitblasts


@pytest.mark.parametrize(
    "masked,classification",
    [(True, "sanity_checks_prevent_overflow"), (False, "diode_exposes_overflow")],
    ids=["masked", "unmasked"],
)
def test_repeated_analysis_is_identical(masked, classification):
    application = tiles_application(masked)
    first, first_bitblasts = analyze_once(application)
    second, second_bitblasts = analyze_once(application)
    assert [entry[1] for entry in first] == [classification]
    assert first == second
    assert first_bitblasts == second_bitblasts
