"""Correctness oracle for benchmark passes.

Never consults the program under test: registry verdicts are compared with
the paper's ground truth (the per-site expectations the application models
carry, plus the paper's Table 1 totals restated here), and guarded-chain
verdicts with the generator's construction answers, every exposed witness
being re-checked against the generator's own guard and allocation formulas.

Each check returns ``(attempted, failed, problems)`` for one pass.  A site
fails if its verdict differs from the known answer or is unknown, if it is
missing, or if its witness does not re-check; a crashed pass fails all of
its sites.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

import guarded

#: Paper Table 1 totals over the five-application registry.
PAPER_TABLE1 = {"exposed": 14, "unsatisfiable": 17, "prevented": 9}
PAPER_SITES = sum(PAPER_TABLE1.values())
#: Distinct triaged witnesses a full registry pass must yield.
PAPER_DISTINCT_WITNESSES = 14

Check = Tuple[int, int, List[str]]


def crashed(expected_sites: int, reason: str) -> Check:
    return expected_sites, expected_sites, [f"pass crashed: {reason}"]


def check_registry(out: dict) -> Check:
    expectations = out["expectations"]
    expected = {
        (app, tag): verdict
        for app, tags in expectations.items()
        for tag, verdict in tags.items()
    }
    problems: List[str] = []
    totals = Counter(expected.values())
    if len(expected) != PAPER_SITES or dict(totals) != PAPER_TABLE1:
        problems.append(f"expectations {dict(totals)} differ from the paper's {PAPER_TABLE1}")
    seen = set()
    failed = 0
    for site in out["sites"]:
        key = (site["app"], site["tag"])
        want = expected.get(key)
        if key in seen or want is None or site["verdict"] != want:
            failed += 1
            problems.append(f"{key}: got {site['verdict']}, expected {want}")
        seen.add(key)
    missing = set(expected) - seen
    failed += len(missing)
    problems.extend(f"{key}: missing" for key in sorted(missing))
    attempted = max(len(expected), PAPER_SITES) + len(
        [s for s in out["sites"] if (s["app"], s["tag"]) not in expected])
    distinct = out.get("distinct_witnesses")
    if distinct != PAPER_DISTINCT_WITNESSES:
        failed += abs(PAPER_DISTINCT_WITNESSES - (distinct or 0))
        problems.append(f"{distinct} distinct witnesses, expected {PAPER_DISTINCT_WITNESSES}")
    return attempted, min(failed, attempted), problems


def check_guarded(out: dict, seed: int) -> Check:
    programs = {program.name: program for program in guarded.generate(seed)}
    by_app = {}
    for site in out["sites"]:
        by_app.setdefault(site["app"], []).append(site)
    problems: List[str] = []
    failed = 0
    for name, program in programs.items():
        sites = by_app.pop(name, [])
        if len(sites) != 1 or sites[0]["tag"] != guarded.SITE_TAG:
            failed += 1
            problems.append(f"{name}: expected one site {guarded.SITE_TAG}, got {sites}")
            continue
        site = sites[0]
        if site["verdict"] != program.answer:
            failed += 1
            problems.append(f"{name}: got {site['verdict']}, expected {program.answer}")
            continue
        if program.answer == guarded.EXPOSED:
            decoded = guarded.decode(bytes.fromhex(site["witness"] or ""))
            if decoded is None or not (program.guards_pass(*decoded) and program.overflows(*decoded)):
                failed += 1
                problems.append(f"{name}: witness {decoded} fails the re-check")
    extra = sum(len(sites) for sites in by_app.values())
    if extra:
        problems.append(f"{extra} sites from unknown programs")
    return len(programs) + extra, failed + extra, problems
