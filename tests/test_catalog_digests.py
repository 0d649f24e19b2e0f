"""Key-for-key gate on the closure enumeration.

`data/catalog_digests.json` holds, for every n <= 72, the ring count and
a sha256 of the sorted canonical keys of `enumerate_srings(n)`, frozen
from the pairwise closure that tried every pair of divisor rings.  Any
later enumeration must reproduce every entry exactly.  The closure builds
its rings without `validate`, so every ring is also revalidated here.

Regenerate (only when a catalog change is intended):

    PYTHONPATH=src python3 tests/test_catalog_digests.py
"""

import hashlib
import json
from pathlib import Path

from schurring.catalog import _catalog_order, enumerate_srings
from schurring.sring import validate

DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "catalog_digests.json"
MAX_N = 72


def catalog_digest(rings) -> str:
    """sha256 of the sorted canonical keys, one ``[n, classes]`` line each
    (the format of the benchmark's expected catalog digests)."""
    lines = sorted(json.dumps([A.n, [list(c) for c in A.classes]], separators=(",", ":")) for A in rings)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest_entry(n: int, cat) -> dict:
    assert list(cat.rings) == _catalog_order(cat.rings), f"n={n}: rings out of catalog order"
    assert cat.count_exact == len(cat.rings)
    for A in cat.rings:
        assert validate(A.n, A.classes) == A, f"n={n}: {A.classes} does not revalidate to itself"
    return {"count": cat.count_exact, "sha256": catalog_digest(cat.rings)}


def test_catalogs_match_frozen_digests(catalogs):
    frozen = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert sorted(frozen, key=int) == [str(n) for n in range(1, MAX_N + 1)]
    for n in range(1, MAX_N + 1):
        assert digest_entry(n, catalogs[n]) == frozen[str(n)], f"n={n}: catalog differs from the frozen digest"


if __name__ == "__main__":
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    table = {str(n): digest_entry(n, enumerate_srings(n)) for n in range(1, MAX_N + 1)}
    DIGESTS_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
