"""Schurity decision, automorphism groups, normality, minimality."""

import math

import pytest

from conftest import is_color_automorphism
from schurring.arith import classify
from schurring.catalog import enumerate_srings
from schurring.construct import cyclotomic, gen_wreath, k_m, rank2, tensor, units, witness
from schurring.errors import CapExceeded, NotNonSchurian, SearchBudgetExceeded
from schurring.perm import group_order, orbits_of_perms
from schurring.schurity import (
    MAX_SEARCH_DEGREE,
    _aut_data,
    aut_order,
    automorphism_group,
    color,
    is_normal_sring,
    is_schurian,
    minimal_nonschurian_check,
)
from schurring.sring import group_ring, tensor_split, validate

W4 = validate(4, [[0], [2], [1, 3]])


def test_color_examples():
    for A in (W4, group_ring(7)):
        for x in range(A.n):
            assert color(A, x, x) == 0
    assert color(W4, 1, 3) == W4.class_of[2]
    assert color(W4, 3, 0) == W4.class_of[1]
    assert W4.classes[color(W4, 3, 0)] == (1, 3)


def test_automorphism_group_examples():
    for n in (3, 5, 8, 12):
        assert aut_order(group_ring(n)) == n
    for n in (4, 5, 6):
        assert aut_order(rank2(n)) == math.factorial(n)
    assert aut_order(cyclotomic(k_m(5))) == 10  # dihedral


def test_automorphism_group_generators_preserve_colors():
    for A in (W4, cyclotomic(k_m(12)), rank2(5), witness(8, 9)):
        G = automorphism_group(A)
        assert G.degree == A.n
        for g in G.generators:
            assert is_color_automorphism(A, g)
        shift = tuple((x + 1) % A.n for x in range(A.n))
        assert A.n == 1 or shift in G
        assert group_order(G) == aut_order(A)


def test_stabilizer_chain_is_checked_independently():
    # the search's generators against PermGroup's own Schreier-Sims and a
    # direct color check, not against the search's own bookkeeping, over the
    # catalogs n <= 16 and the 14 witness rings 72 <= n <= 300
    witnesses = [witness(*classify(n).nonschur_split) for n in range(72, 301)
                 if classify(n).nonschur_split]
    assert len(witnesses) == 14
    rings = [A for n in range(1, 17) for A in enumerate_srings(n).rings] + witnesses
    for A in rings:
        data = _aut_data(A)
        for g in data.stabilizer_gens:
            assert g[0] == 0 and is_color_automorphism(A, g)
        assert automorphism_group(A).order() == aut_order(A) == data.order
        assert tuple(orbits_of_perms(A.n, data.stabilizer_gens)) == data.stabilizer_orbits


def test_aut_order_is_multiplier_invariant():
    for A in (W4, cyclotomic(k_m(12)), validate(8, [[0], [4], [2, 6], [1, 3, 5, 7]])):
        n = A.n
        for m in units(n):
            mapped = validate(n, [[m * x % n for x in c] for c in A.classes])
            assert aut_order(mapped) == aut_order(A)


def test_is_schurian_examples():
    for n in (2, 5, 9, 12):
        v = is_schurian(group_ring(n))
        assert v.schurian and v.witness_mismatch is None
        assert v.aut_order % n == 0
    assert is_schurian(cyclotomic(k_m(15))).schurian
    assert is_schurian(rank2(7)).schurian


def test_schurity_verdict_orbit_partition_consistency():
    for A in (W4, cyclotomic(k_m(12)), witness(8, 9)):
        v = is_schurian(A)
        # each stabilizer orbit is contained in a single class
        for orb in v.stabilizer_orbits:
            cls = {A.class_of[x] for x in orb}
            assert len(cls) == 1
        covered = sorted(x for orb in v.stabilizer_orbits for x in orb)
        assert covered == list(range(A.n))
        assert v.schurian == (len(v.stabilizer_orbits) == A.rank)


def test_witness_72_is_not_schurian():
    w = witness(8, 9)
    v = is_schurian(w)
    assert not v.schurian
    assert v.aut_order == 2592
    orb, cls = v.witness_mismatch
    assert set(orb) < set(w.classes[cls])
    assert set(orb) == {6, 66}
    assert w.classes[cls] == (6, 30, 42, 66)


def test_witness_120_is_not_schurian():
    v = is_schurian(witness(8, 15))
    assert not v.schurian
    assert v.aut_order == 38880


def test_is_normal_sring_examples():
    assert is_normal_sring(group_ring(6))
    A = cyclotomic(k_m(12))
    assert is_normal_sring(A) and aut_order(A) == 24
    assert not is_normal_sring(rank2(5))


def test_minimal_nonschurian_check():
    assert minimal_nonschurian_check(witness(8, 9)) is True
    with pytest.raises(NotNonSchurian):
        minimal_nonschurian_check(group_ring(6))


def test_nonminimal_nonschurian_instance():
    # wreathing the order-72 witness with a group ring on top yields a
    # non-schurian ring with a non-schurian proper section
    B = gen_wreath(witness(8, 9), group_ring(2), 1)
    assert B.n == 144
    assert not is_schurian(B).schurian
    assert minimal_nonschurian_check(B) is False


def test_wreath_schurity_on_an_applicable_instance():
    # A over Z_24 is the U/L-wreath product with U of order 12, L of
    # order 3, and A_U splits as the tensor of A_L with the section ring,
    # so schurity must be equivalent to schurity of the two factors.
    AU = tensor(group_ring(3), cyclotomic(k_m(4)))
    AGL = cyclotomic(k_m(8))
    A = gen_wreath(AU, AGL, 4)
    assert tensor_split(AU, 3)
    assert is_schurian(A).schurian == (
        is_schurian(AU).schurian and is_schurian(AGL).schurian
    )
    assert is_schurian(A).schurian


def test_budget_exhaustion_raises():
    # one node per candidate image a branch tries and one per point a forced
    # map assigns: the smallest budget that decides each ring is pinned.
    # The default-budget verdict is memoized on (ring, budget), so every
    # smaller budget still runs its own search.
    for A, threshold in ((rank2(23), 231), (cyclotomic(k_m(35)), 33), (witness(8, 9), 209)):
        decided = is_schurian(A)
        with pytest.raises(SearchBudgetExceeded):
            is_schurian(A, budget=1)
        assert is_schurian(A, budget=threshold) == decided
        with pytest.raises(SearchBudgetExceeded):
            is_schurian(A, budget=threshold - 1)
    with pytest.raises(ValueError):
        is_schurian(W4, budget=-1)


def test_search_degree_cap():
    # refused before the search allocates its n x n matrices or recurses
    A = rank2(MAX_SEARCH_DEGREE + 1)
    for decide in (is_schurian, aut_order, automorphism_group):
        with pytest.raises(CapExceeded):
            decide(A)
