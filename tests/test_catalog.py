"""Enumeration of all S-rings over Z_n and the schurity census."""

import json
from collections import Counter

import pytest
from test_verdict_digests import CENSUS_72_PATH, census_entry

from schurring import catalog as catalog_mod
from schurring import construct, sring
from schurring.catalog import (
    BRUTE_CAP,
    Catalog,
    brute_force_enumerate,
    census,
    enumerate_srings,
    unit_subgroups,
)
from schurring.construct import units
from schurring.errors import CapExceeded, NotClosedUnderProduct
from schurring.sring import quotient_classes, validate

# exact counts, frozen from the brute-force oracle
ORACLE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 3, 6: 7, 7: 4, 8: 10, 9: 7, 10: 10, 11: 4, 12: 32}


def test_unit_subgroups():
    assert [g.elements for g in unit_subgroups(5)] == [(1,), (1, 4), (1, 2, 3, 4)]
    # units(8) is the Klein four-group: five subgroups
    assert len(unit_subgroups(8)) == 5
    assert all(1 in g.elements for g in unit_subgroups(12))


def test_enumerate_examples():
    assert enumerate_srings(1).count_exact == 1
    assert enumerate_srings(4).count_exact == 3
    assert enumerate_srings(5).count_exact == 3


def test_enumerate_matches_frozen_counts():
    for n, count in ORACLE_COUNTS.items():
        assert enumerate_srings(n).count_exact == count


def test_enumerate_validates_each_ring_once(monkeypatch):
    # sections are looked up among the catalog rings, never validated again
    validated = Counter()

    def counting(n, classes):
        A = validate(n, classes)
        validated[A.key()] += 1
        return A

    for mod in (sring, catalog_mod, construct):
        monkeypatch.setattr(mod, "validate", counting)
    keys = {A.key() for A in enumerate_srings(48).rings}
    assert keys <= validated.keys()
    assert set(validated.values()) == {1}


def test_enumerate_rejects_a_section_outside_the_catalog(monkeypatch):
    # a quotient whose class of 0 is merged into its neighbour is no S-ring,
    # so its key is missing from the catalog and the lookup must fail
    def merged(A, l):
        m, classes = quotient_classes(A, l)
        return m, [classes[0] + classes[1], *classes[2:]] if len(classes) > 1 else classes

    monkeypatch.setattr(catalog_mod, "quotient_classes", merged)
    with pytest.raises(KeyError):
        enumerate_srings(12)


def test_brute_force_examples():
    assert brute_force_enumerate(2).count_exact == 1
    assert brute_force_enumerate(3).count_exact == 2
    assert brute_force_enumerate(4).count_exact == 3
    got = {A.classes for A in brute_force_enumerate(4).rings}
    assert got == {
        ((0,), (1,), (2,), (3,)),
        ((0,), (1, 3), (2,)),
        ((0,), (1, 2, 3)),
    }


def test_catalog_entries_are_valid_and_deduplicated():
    cat = enumerate_srings(12)
    keys = [A.key() for A in cat.rings]
    assert len(keys) == len(set(keys))
    for A in cat.rings:
        assert validate(A.n, [list(c) for c in A.classes]).key() == A.key()


def test_catalog_rings_are_multiplier_invariant():
    # Schur-Wielandt: every unit of Z_n maps each basic set onto a basic set
    for n in [*range(1, 37), 48]:
        for A in enumerate_srings(n).rings:
            classes = set(A.classes)
            for m in units(n):
                for c in A.classes:
                    assert tuple(sorted(m * x % n for x in c)) in classes, (n, A.classes, m)


def test_brute_force_propagates_unexpected_errors(monkeypatch):
    # only axiom failures (SchurRingError) mean "not an S-ring"; anything else is a bug
    def broken(n, classes):
        raise RuntimeError("bug inside validate")

    monkeypatch.setattr(catalog_mod, "validate", broken)
    with pytest.raises(RuntimeError, match="bug inside validate"):
        brute_force_enumerate(4)

    def rejects_all(n, classes):
        raise NotClosedUnderProduct((), (), 0, 0)

    monkeypatch.setattr(catalog_mod, "validate", rejects_all)
    assert brute_force_enumerate(4).count_exact == 0


def test_caps():
    with pytest.raises(CapExceeded):
        enumerate_srings(73)
    with pytest.raises(CapExceeded):
        brute_force_enumerate(BRUTE_CAP + 1)
    with pytest.raises(CapExceeded):
        enumerate_srings(16, cap=12)
    assert isinstance(enumerate_srings(16, cap=16), Catalog)


def test_census_small_family_orders():
    for n in (6, 24, 30):
        rep = census(n)
        assert rep.total == rep.schurian_count
        assert rep.first_nonschurian is None
        assert len(rep.entries) == rep.total


def test_census_72_contains_nonschurian():
    # every ring over Z_72 is decided, and (key, aut order, stabilizer
    # orbits) match the digest written by the earlier mask-based search;
    # the budget is about 7x the most nodes a ring here needs (1,338,256)
    rep = census(72, budget=10**7)
    assert rep.schurian_count < rep.total
    assert rep.first_nonschurian is not None
    frozen = json.loads(CENSUS_72_PATH.read_text(encoding="utf-8"))
    assert census_entry(rep) == frozen
