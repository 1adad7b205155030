"""Seeded guarded-allocation programs with answers known by construction.

Each program reads two 16-bit little-endian fields ``w`` and ``h`` and
allocates ``w * h * 1024`` bytes, which wraps 32-bit arithmetic exactly when
``w * h * 1024 >= 2**32``.  Before the allocation it runs, in this order:

* on two of every three programs, high-byte mask guards that keep ``w`` and
  ``h`` below 256, which makes the overflow unreachable (``prevented``);
* two checksum guards whose seeded constants are fitted to the seed input,
  so the seed passes them and a solver must satisfy them explicitly;
* a square-residue guard that can never fire (a sum of two squares is never
  3 mod 4, and 32-bit wrap-around keeps the residue mod 4).

Unmasked programs are ``exposed``.  The mask guards come first so that a
masked program is settled by two enforcement steps; each step that fails
to sample a model falls through to bit-blasting, which is where these
programs spend their time.  This module imports nothing from the
program under test: the generator, the guard formulas and the allocation
formula below are the benchmark's oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

EXPOSED = "exposed"
PREVENTED = "prevented"

#: Input layout: (field name, offset, size).  ``magic`` is immutable.
MAGIC = b"GC"
FIELDS: Tuple[Tuple[str, int, int], ...] = (
    ("/magic", 0, 2),
    ("/header/w", 2, 2),
    ("/header/h", 4, 2),
    ("/payload", 6, 8),
)
INPUT_SIZE = 14
SITE_TAG = "gc.c@pixels"
WORD = 1 << 32
#: Programs per benchmark pass.
PROGRAMS = 12

_SOURCE = """
proc read_le16(o) {{
  v = input(o) | (input(o + 1) << 8);
  return v;
}}

proc main() {{
  w = read_le16(2);
  h = read_le16(4);
{masks}  if (((w + h * {m1}) & 255) != {k1}) {{
    halt "header checksum mismatch";
  }}
  if ((((w ^ (h << 3)) + {c2}) & 63) != {k2}) {{
    halt "geometry checksum mismatch";
  }}
  if ((w * w + h * h) % 4 == 3) {{
    halt "impossible residue";
  }}
  pixels = alloc(w * h * 1024) @ "{tag}";
  pixels[w * h * 1024 - 1] = 0;
}}
"""

MASK_GUARDS = """  if ((w & 65280) != 0) {
    halt "width too large";
  }
  if ((h & 65280) != 0) {
    halt "height too large";
  }
"""


@dataclass(frozen=True)
class GuardedProgram:
    """One generated program, its seed input and its construction answer."""

    name: str
    m1: int
    k1: int
    c2: int
    k2: int
    masked: bool
    seed_w: int
    seed_h: int

    @property
    def answer(self) -> str:
        return PREVENTED if self.masked else EXPOSED

    @property
    def source(self) -> str:
        return _SOURCE.format(
            m1=self.m1,
            k1=self.k1,
            c2=self.c2,
            k2=self.k2,
            masks=MASK_GUARDS if self.masked else "",
            tag=SITE_TAG,
        )

    @property
    def seed_input(self) -> bytes:
        return encode(self.seed_w, self.seed_h)

    def guards_pass(self, w: int, h: int) -> bool:
        """The program's guards, restated in plain Python."""
        if (w + h * self.m1) & 255 != self.k1:
            return False
        if ((w ^ (h << 3)) + self.c2) & 63 != self.k2:
            return False
        if self.masked and (w & 0xFF00 or h & 0xFF00):
            return False
        return ((w * w + h * h) % WORD) % 4 != 3

    @staticmethod
    def overflows(w: int, h: int) -> bool:
        """Whether the allocation size wraps 32-bit arithmetic."""
        return w * h * 1024 >= WORD


def encode(w: int, h: int) -> bytes:
    """The input bytes carrying ``w`` and ``h`` under :data:`FIELDS`."""
    payload = bytes((index * 37 + 11) & 0xFF for index in range(8))
    return MAGIC + w.to_bytes(2, "little") + h.to_bytes(2, "little") + payload


def decode(data: bytes) -> Optional[Tuple[int, int]]:
    """``(w, h)`` from input bytes, or ``None`` if the bytes are malformed."""
    if len(data) < 6 or data[:2] != MAGIC:
        return None
    return int.from_bytes(data[2:4], "little"), int.from_bytes(data[4:6], "little")


def generate(seed: int) -> List[GuardedProgram]:
    """:data:`PROGRAMS` programs from ``seed``; program ``i`` is masked unless i % 3 == 2."""
    rng = random.Random(seed)
    programs = []
    for index in range(PROGRAMS):
        seed_w = rng.randrange(16, 200)
        seed_h = rng.randrange(16, 200)
        m1 = rng.randrange(3, 252, 2)
        c2 = rng.randrange(0, 64)
        programs.append(
            GuardedProgram(
                name=f"guarded-{seed}-{index}",
                m1=m1,
                k1=(seed_w + seed_h * m1) & 255,
                c2=c2,
                k2=((seed_w ^ (seed_h << 3)) + c2) & 63,
                masked=index % 3 != 2,
                seed_w=seed_w,
                seed_h=seed_h,
            )
        )
    return programs


def find_overflowing_input(program: GuardedProgram) -> Optional[Tuple[int, int]]:
    """Search for ``(w, h)`` that passes every guard and overflows.

    Walks ``h`` down from the top of its range; for each ``h`` the first
    checksum fixes ``w`` mod 256, so only 256 values of ``w`` per step
    need trying.
    """
    for h in range(0xFFFF, 63, -1):
        base = (program.k1 - h * program.m1) & 255
        for w in range(0xFF00 + base, 0, -256):
            if not program.overflows(w, h):
                break
            if program.guards_pass(w, h):
                return w, h
    return None
