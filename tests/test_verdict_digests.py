"""Verdict gate on the automorphism search.

`data/verdict_digests.json` holds, for every n <= 36, the ring count and
a sha256 of the sorted ``[[n, classes], aut_order, stabilizer_orbits]`` lines over
`enumerate_srings(n)`.  `data/census_72_digest.json` holds the same entry
over the rings of `census(72)`, which
`test_catalog.py::test_census_72_contains_nonschurian` checks.
`data/verdict_digests_37_71.json` holds the entry of every order
37 <= n <= 71, with a larger node budget per ring; it equals the file the
earlier mask-based search (commit 640d6cd) writes.  The order of aut(A)
and the orbits of its 0-stabilizer are invariants of the ring, not of how
the search finds them, so any later search (a refinement search included)
must reproduce every entry exactly.  The public entry points decide plain
wreath products from their factors, so the n <= 36 file is also checked
against the bare search, `schurity._search`.

Regenerate the three files (only when a verdict change is intended):

    PYTHONPATH=src python3 tests/test_verdict_digests.py
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

from schurring.catalog import census, enumerate_srings
from schurring.perm import orbit_partition
from schurring.schurity import _search, is_schurian

DATA = Path(__file__).resolve().parent / "data"
DIGESTS_PATH = DATA / "verdict_digests.json"
CENSUS_72_PATH = DATA / "census_72_digest.json"
WIDE_PATH = DATA / "verdict_digests_37_71.json"
MAX_N = 36
WIDE = range(MAX_N + 1, 72)
# nodes per ring: about 10x the most a ring here needs (948, by bisection, for
# a ring over Z_33 with class sizes 1, 2, 15, 15), so that a broken search
# fails within seconds instead of stalling on the default budget
BUDGET = 10**4
# about 3x the most a ring over 37..71 needs (34,453, for a ring over Z_66
# with class sizes 1, 5, 5, 11, 11, 11, 11, 11), while a search that branches
# on the wrong point spends over 10^6 on plain wreath products over Z_55
WIDE_BUDGET = 10**5


def verdict_line(A, v) -> str:
    orbits = [list(o) for o in v.stabilizer_orbits]
    return json.dumps([[A.n, [list(c) for c in A.classes]], v.aut_order, orbits], separators=(",", ":"))


def verdicts_entry(pairs) -> dict:
    """Ring count and sha256 of the sorted verdict lines of (ring, verdict) pairs."""
    lines = sorted(verdict_line(A, v) for A, v in pairs)
    return {"count": len(lines), "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def bare_search(A, budget: int):
    """The search's verdict fields, without the plain wreath assembly."""
    data = _search(A, budget)
    return SimpleNamespace(aut_order=data.order, stabilizer_orbits=tuple(orbit_partition(data.orbit)))


def digest_entry(rings, budget: int, decide=is_schurian) -> dict:
    return verdicts_entry((A, decide(A, budget)) for A in rings)


def census_entry(report) -> dict:
    return verdicts_entry((e.ring, e.verdict) for e in report.entries)


def digest_table(orders, budget: int) -> dict:
    return {str(n): digest_entry(enumerate_srings(n).rings, budget) for n in orders}


def check_frozen(path, orders, budget: int, catalogs, decide=is_schurian) -> None:
    frozen = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(frozen, key=int) == [str(n) for n in orders]
    for n in orders:
        got = digest_entry(catalogs[n].rings, budget, decide)
        assert got == frozen[str(n)], f"n={n}: verdicts differ from the frozen digest"


def test_verdicts_match_frozen_digests(catalogs):
    check_frozen(DIGESTS_PATH, range(1, MAX_N + 1), BUDGET, catalogs)


def test_bare_search_matches_frozen_digests(catalogs):
    # the public entry points decide the 752 plain wreath products n <= 36
    # from their factors; this keeps the search itself checked on them
    check_frozen(DIGESTS_PATH, range(1, MAX_N + 1), BUDGET, catalogs, bare_search)


def test_verdicts_37_71_match_frozen_digests(catalogs):
    # 5,328 rings, every one decided within WIDE_BUDGET nodes
    check_frozen(WIDE_PATH, WIDE, WIDE_BUDGET, catalogs)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for path, table in ((DIGESTS_PATH, digest_table(range(1, MAX_N + 1), BUDGET)),
                        (WIDE_PATH, digest_table(WIDE, WIDE_BUDGET))):
        path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    CENSUS_72_PATH.write_text(json.dumps(census_entry(census(72)), indent=1) + "\n", encoding="utf-8")
