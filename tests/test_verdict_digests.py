"""Verdict gate on the automorphism search.

`data/verdict_digests.json` holds, for every n <= 36, the ring count and
a sha256 of the sorted ``[key, aut_order, stabilizer_orbits]`` lines over
`enumerate_srings(n)`.  `data/census_72_digest.json` holds the same entry
over the rings of `census(72)`, which
`test_catalog.py::test_census_72_contains_nonschurian` checks.  The order
of aut(A) and the orbits of its 0-stabilizer are invariants of the ring,
not of how the search finds them, so any later search (a refinement
search included) must reproduce every entry exactly.

Regenerate both files (only when a verdict change is intended):

    PYTHONPATH=src python3 tests/test_verdict_digests.py
"""

import hashlib
import json
from pathlib import Path

from schurring.catalog import census, enumerate_srings
from schurring.schurity import is_schurian

DATA = Path(__file__).resolve().parent / "data"
DIGESTS_PATH = DATA / "verdict_digests.json"
CENSUS_72_PATH = DATA / "census_72_digest.json"
MAX_N = 36
# nodes per ring: about 10x the most a ring here needs (948, by bisection, for
# a ring over Z_33 with class sizes 1, 2, 15, 15), so that a broken search
# fails within seconds instead of stalling on the default budget
BUDGET = 10**4


def verdict_line(A, v) -> str:
    orbits = [list(o) for o in v.stabilizer_orbits]
    return json.dumps([[A.n, [list(c) for c in A.classes]], v.aut_order, orbits], separators=(",", ":"))


def verdicts_entry(pairs) -> dict:
    """Ring count and sha256 of the sorted verdict lines of (ring, verdict) pairs."""
    lines = sorted(verdict_line(A, v) for A, v in pairs)
    return {"count": len(lines), "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def digest_entry(n: int) -> dict:
    return verdicts_entry((A, is_schurian(A, BUDGET)) for A in enumerate_srings(n).rings)


def census_entry(report) -> dict:
    return verdicts_entry((e.ring, e.verdict) for e in report.entries)


def test_verdicts_match_frozen_digests():
    frozen = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert sorted(frozen, key=int) == [str(n) for n in range(1, MAX_N + 1)]
    for n in range(1, MAX_N + 1):
        assert digest_entry(n) == frozen[str(n)], f"n={n}: verdicts differ from the frozen digest"


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    table = {str(n): digest_entry(n) for n in range(1, MAX_N + 1)}
    DIGESTS_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    CENSUS_72_PATH.write_text(json.dumps(census_entry(census(72)), indent=1) + "\n", encoding="utf-8")
