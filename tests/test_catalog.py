"""Enumeration of all S-rings over Z_n and the schurity census."""

import dataclasses
import json

import pytest
from conftest import full_join, set_partitions
from test_verdict_digests import CENSUS_72_PATH, census_entry

from schurring import catalog as catalog_mod
from schurring import cli, construct, schurity, sring
from schurring.catalog import (
    BRUTE_CAP,
    Catalog,
    brute_force_enumerate,
    census,
    enumerate_srings,
    unit_subgroups,
)
from schurring.construct import (
    MultiplierGroup,
    cyclotomic,
    gen_wreath,
    k_m,
    rank2,
    tensor,
    units,
    witness,
    witness_detailed,
)
from schurring.errors import CapExceeded, NotClosedUnderProduct
from schurring.sring import (
    Section,
    group_ring,
    quotient,
    restrict,
    restrict_section,
    validate,
    wreath_decompositions,
)

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


def test_only_the_boundary_validates(monkeypatch, tmp_path):
    # the builders, the closure, the census and the witness make S-rings by
    # theorem and never call validate; documents and the oracle's
    # candidates come from outside and are always validated
    calls = []

    def counting(n, classes):
        calls.append(n)
        return validate(n, classes)

    for mod in (sring, construct, catalog_mod, schurity, cli):
        monkeypatch.setattr(mod, "validate", counting, raising=False)

    def validations(build):
        calls.clear()
        build()
        return len(calls)

    G4 = group_ring(4)
    builders = [
        lambda: group_ring(5),
        lambda: enumerate_srings(48),
        lambda: census(24),
        lambda: witness_detailed(8, 27),
        lambda: cyclotomic(MultiplierGroup.from_generators(12, [5, 7])),
        lambda: rank2(6),
        lambda: tensor(G4, cyclotomic(k_m(9))),
        lambda: gen_wreath(G4, group_ring(6), 2),
        lambda: restrict(G4, 2),
        lambda: quotient(G4, 2),
        lambda: restrict_section(G4, Section(4, 2)),
    ]
    assert [validations(b) for b in builders] == [0] * len(builders)
    candidates = sum(1 for _ in catalog_mod._inverse_closed_partitions(8))
    assert validations(lambda: brute_force_enumerate(8)) == candidates
    doc = tmp_path / "w4.json"
    doc.write_text(json.dumps({"n": 4, "classes": [[0], [2], [1, 3]]}), encoding="utf-8")
    assert validations(lambda: cli.main(["analyze", str(doc)])) == 1
    assert validations(lambda: cli.ring_from_document({"n": 4, "classes": [[0], [2], [1, 3]]})) == 1


def test_enumerate_rejects_a_section_outside_the_catalog(monkeypatch):
    # a quotient whose class of 0 is merged into its neighbour is no S-ring,
    # so its labels are missing from the catalog and the lookup must fail
    def merged(A, l):
        B = quotient(A, l)
        return dataclasses.replace(B, class_of=tuple(max(c - 1, 0) for c in B.class_of))

    monkeypatch.setattr(catalog_mod, "quotient", merged)
    with pytest.raises(KeyError):
        enumerate_srings(12)


def test_join_filters_match_their_definitions():
    # every triple the unreduced join glues, d <= 36: the left filter fires
    # iff the product has a decomposition (u', l) with u' | u, u' < u, the
    # right one iff it has a decomposition (u, l') with l | l', l' > l
    triples = 0
    for d in range(1, 37):
        for A1, A2, m in full_join(d)[1]:
            u, l = A1.n, A1.n // m
            W = wreath_decompositions(gen_wreath(A1, A2, m))
            assert (u, l) in {(s.u, s.l) for s in W}
            smaller_u = any(s.l == l and u % s.u == 0 and s.u < u for s in W)
            larger_l = any(s.u == u and s.l % l == 0 and s.l > l for s in W)
            assert catalog_mod._smaller_u(A1, l) == smaller_u, (A1.class_of, l)
            assert catalog_mod._larger_l(A2, m) == larger_l, (A2.class_of, m)
            triples += 1
    assert triples == 3175


def test_reduced_join_matches_full_join_past_72():
    # n <= 72 is held by the frozen digests; past them the ring sets of the
    # reduced and the unreduced join must agree
    for n in (80, 108, 126):
        assert set(enumerate_srings(n, cap=n).rings) == full_join(n)[0], n


def test_brute_force_examples():
    for n in (0, -1):
        with pytest.raises(ValueError, match="must be positive"):
            brute_force_enumerate(n)
    assert brute_force_enumerate(2).count_exact == 1
    assert brute_force_enumerate(3).count_exact == 2
    assert brute_force_enumerate(4).count_exact == 3
    got = {A.classes for A in brute_force_enumerate(4).rings}
    assert got == {
        ((0,), (1,), (2,), (3,)),
        ((0,), (1, 3), (2,)),
        ((0,), (1, 2, 3)),
    }


def test_walker_yields_each_negation_closed_partition_once():
    # every partition of {1..n-1} whose negation maps each class onto a
    # class, once, as ascending classes in order of their least point
    for n in range(1, 11):
        want = set()
        for part in set_partitions(list(range(1, n))):
            classes = frozenset(map(frozenset, part))
            if all(frozenset((n - x) % n for x in c) in classes for c in classes):
                want.add(classes)
        got = list(catalog_mod._inverse_closed_partitions(n))
        assert all(p == sorted(map(sorted, p)) for p in got), n
        got = [frozenset(map(frozenset, p)) for p in got]
        assert len(got) == len(set(got)) and set(got) == want, n


def test_catalog_entries_are_valid_and_deduplicated():
    cat = enumerate_srings(12)
    assert len(set(cat.rings)) == len(cat.rings)
    for A in cat.rings:
        assert validate(A.n, [list(c) for c in A.classes]) == A


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
    # the budget is about 30x the most nodes a ring here needs (3,118, for
    # a ring with class sizes 1, 1, 2, 2, 6, 6, 6, 12, 18, 18)
    rep = census(72, budget=10**5)
    assert rep.schurian_count < rep.total
    assert rep.first_nonschurian is not None
    # census decides exactly the rings of enumerate_srings(72), so the
    # closure itself must hold the explicit witness
    assert witness(8, 9) in {e.ring for e in rep.entries}
    frozen = json.loads(CENSUS_72_PATH.read_text(encoding="utf-8"))
    assert census_entry(rep) == frozen
