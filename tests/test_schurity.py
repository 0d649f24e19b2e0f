"""Schurity decision, automorphism groups, normality, minimality."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    is_color_automorphism,
    is_normal_sring,
    is_normal_subgroup,
    minimal_by_sections,
    orbits_of_perms,
)
from schurring import schurity
from schurring.arith import classify
from schurring.catalog import census, enumerate_srings
from schurring.construct import MultiplierGroup, cyclotomic, gen_wreath, k_m, rank2, tensor, units, witness
from schurring.errors import CapExceeded, NotNonSchurian, SearchBudgetExceeded
from schurring.perm import orbit_partition, translations
from schurring.schurity import (
    MAX_SEARCH_DEGREE,
    _aut_data,
    _search,
    aut_order,
    automorphism_group,
    color,
    is_schurian,
    minimal_nonschurian_check,
)
from schurring.sring import _is_wreath, group_ring, quotient, restrict, tensor_split, validate

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
        assert G.order() == aut_order(A)


def test_stabilizer_chain_is_checked_independently():
    # the search's generators against PermGroup's own Schreier-Sims and a
    # direct color check, not against the search's own bookkeeping, over the
    # catalogs n <= 16 and the 14 witness rings 72 <= n <= 300; the plain
    # wreath products among them check the generators assembled from the
    # factors
    witnesses = [witness(*classify(n).nonschur_split) for n in range(72, 301)
                 if classify(n).nonschur_split]
    assert len(witnesses) == 14
    rings = [A for n in range(1, 17) for A in enumerate_srings(n).rings] + witnesses
    # about 10x the most nodes any of these rings needs (10,399, witness(8, 33)),
    # so a search gone wrong fails here instead of burning the default budget
    budget = 10**5
    for A in rings:
        data = _aut_data(A, budget)
        for g in data.stabilizer_gens:
            assert g[0] == 0 and is_color_automorphism(A, g)
        assert automorphism_group(A, budget).order() == aut_order(A, budget) == data.order
        assert tuple(orbits_of_perms(A.n, data.stabilizer_gens)) == tuple(orbit_partition(data.orbit))
        # every point is labelled by the least point of its orbit
        assert all(data.orbit[data.orbit[x]] == data.orbit[x] <= x for x in range(A.n))


def test_search_branches_where_the_read_off_failed(monkeypatch):
    # a DFS frame relabels the 2n keys of both sides, a level's labels only
    # n.  Branching on a point whose row the failed read-off broke takes 445
    # frames over the 14 witness rings; the lowest point of any open cell
    # took 770
    witnesses = [witness(*classify(n).nonschur_split) for n in range(72, 301)
                 if classify(n).nonschur_split]
    sizes = []
    relabel = schurity._relabel

    def counted(keys):
        sizes.append(keys.size)
        return relabel(keys)

    monkeypatch.setattr(schurity, "_relabel", counted)
    frames = 0
    for A in witnesses:
        sizes.clear()
        _search(A)
        frames += sizes.count(2 * A.n)
    assert frames <= 450


def test_census_builds_no_generators():
    # no verdict reads the 0-stabilizer generators, so deciding a census
    # builds none, not even for the rings assembled from their factors.  No
    # other test passes this budget, so every memo entry read here is this
    # test's own; it is about 50x the most nodes a ring here needs (398)
    budget = 2 * 10**4
    entries = [e for n in range(1, 37) for e in census(n, budget=budget).entries]
    assert len(entries) == 1275
    data = [_aut_data(e.ring, budget) for e in entries]
    assert not [e.ring for e, d in zip(entries, data) if "stabilizer_gens" in d.__dict__]
    # read on demand, they generate the stabilizer the verdict describes
    for e, d in zip(entries, data):
        A = e.ring
        for g in d.stabilizer_gens:
            assert g[0] == 0 and _preserves_colors(A, g), A.classes
        assert tuple(orbits_of_perms(A.n, d.stabilizer_gens)) == e.verdict.stabilizer_orbits, A.classes


def test_schurian_orbits_are_the_classes(catalogs):
    # a schurian verdict takes its stabilizer orbits from A.classes instead
    # of listing the search's orbit labels; pinned against that listing on
    # the catalogs n <= 36 and the 14 witness rings 72 <= n <= 300
    witnesses = [witness(*classify(n).nonschur_split) for n in range(72, 301)
                 if classify(n).nonschur_split]
    for A in [A for n in range(1, 37) for A in catalogs[n].rings] + witnesses:
        v = is_schurian(A)
        assert v.stabilizer_orbits == tuple(orbit_partition(_aut_data(A).orbit)), A.classes
        assert (v.stabilizer_orbits == A.classes) == v.schurian, A.classes


def test_every_witness_to_512_is_nonschurian():
    # the paper's non-Schur side up to the search degree cap: each of the 32
    # non-Schur orders n <= 512 has a witness ring, decided within 10^6 nodes
    splits = {n: classify(n).nonschur_split for n in range(1, MAX_SEARCH_DEGREE + 1)}
    orders = [n for n, split in splits.items() if split]
    assert len(orders) == 32 and orders[0] == 72
    for n in orders:
        assert not is_schurian(witness(*splits[n]), 10**6).schurian, n


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


def test_is_normal_sring_matches_the_subgroup_test():
    # reference: conjugate the translations by every generator of aut(A)
    for n in range(1, 17):
        for A in enumerate_srings(n).rings:
            want = is_normal_subgroup(automorphism_group(A), translations(n))
            assert is_normal_sring(A) == want, A.classes


def test_minimal_nonschurian_check():
    assert minimal_nonschurian_check(witness(8, 9)) is True
    with pytest.raises(NotNonSchurian):
        minimal_nonschurian_check(group_ring(6))


def test_minimal_nonschurian_check_matches_every_section(catalogs):
    # the reference builds and decides every proper section ring; the check
    # decides only the restrictions to the proper A-groups and the quotients
    # by the nontrivial ones.  The rings are the non-schurian rings over Z_72
    # (budget as in census(72)), the witnesses 72 <= n <= 300, and two
    # wreath products of witness(8, 9) with rank2(2): one non-schurian on a
    # quotient only, the other on a restriction only
    rings = [A for A in catalogs[72].rings if not is_schurian(A, 10**5).schurian]
    assert len(rings) == 16
    splits = [s for s in (classify(n).nonschur_split for n in range(72, 301)) if s is not None]
    rings += [witness(*s) for s in splits]
    w = witness(8, 9)
    on_top, below = gen_wreath(rank2(2), w, 1), gen_wreath(w, rank2(2), 1)
    assert all(is_schurian(restrict(on_top, u)).schurian for u in on_top.a_groups[:-1])
    assert all(is_schurian(quotient(below, l)).schurian for l in below.a_groups[1:])
    rings += [on_top, below]
    got = [minimal_nonschurian_check(A) for A in rings]
    assert got == [minimal_by_sections(A) for A in rings]
    assert [A.n for A, minimal in zip(rings, got) if not minimal] == [216, 288, 144, 144]


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


def _catalog_ring(n, sizes):
    (A,) = [A for A in enumerate_srings(n).rings if sorted(map(len, A.classes)) == sizes]
    return A


def test_budget_exhaustion_raises():
    # one node per candidate image a branch tries and one per point a read-off
    # map moves: the smallest budget that decides each ring is pinned.
    # The plain wreath products over Z_55 and Z_66 (class sizes 1, 4, 25, 25
    # and 1, 5, 30, 30) are decided from their factors, each within the
    # budget: rank2(5) or rank2(6) on U, which cost nothing, and the same Z_11
    # ring of class sizes 1, 5, 5 on G/U.  Every budget is its own memo key,
    # so each one runs its own searches.
    for A, threshold in ((cyclotomic(k_m(35)), 34), (witness(8, 9), 615),
                         (_catalog_ring(55, [1, 4, 25, 25]), 32), (_catalog_ring(66, [1, 5, 30, 30]), 32)):
        decided = is_schurian(A, budget=threshold)
        with pytest.raises(SearchBudgetExceeded):
            is_schurian(A, budget=threshold - 1)
        with pytest.raises(SearchBudgetExceeded):
            is_schurian(A, budget=1)
        assert is_schurian(A) == decided
    # a rank-2 ring is decided without search
    assert is_schurian(rank2(23), budget=0) == is_schurian(rank2(23))
    # rank 2, plain over rank-2 factors, and a tensor product of rank-2
    # rings: none of them reaches the search, and each refuses the budget
    for A in (rank2(5), W4, tensor(rank2(3), rank2(5))):
        with pytest.raises(ValueError):
            is_schurian(A, budget=-1)


def _is_tensor_only(A):
    """Whether A is a coprime tensor product of two A-groups' rings but
    not a plain wreath product: the rings `_aut_data` assembles by CRT."""
    n, ags = A.n, A.a_groups
    return (not any(_is_wreath(A, u, u) for u in ags[1:-1])
            and any(math.gcd(d, n // d) == 1 and n // d in ags and tensor_split(A, d) for d in ags[1:-1]))


def _preserves_colors(A, g):
    """Whether the permutation g of Z_n preserves every Cayley color of A:
    `conftest.is_color_automorphism` in numpy, which saves about 3 s over
    the 3,869 generators of the tensor rings checked below."""
    C, x, g = np.array(A.class_of), np.arange(A.n), np.array(g)
    return bool((C[(g[None, :] - g[:, None]) % A.n] == C[(x[None, :] - x[:, None]) % A.n]).all())


def test_rank2_and_tensor_rings_match_the_bare_search(catalogs):
    # aut(A) of a rank-2 ring is Sym(n), and that of a coprime tensor product
    # the product of its factors' groups; both are assembled without search
    # and checked here against the search itself
    rings = [A for n in range(1, 73) for A in catalogs[n].rings if _is_tensor_only(A)]
    assert len(rings) == 1068
    rings += [rank2(n) for n in range(2, 73)]
    for A in rings:
        data, bare = _aut_data(A), _search(A)
        assert (data.order, data.orbit) == (bare.order, bare.orbit), A.classes
        for g in data.stabilizer_gens:
            assert g[0] == 0 and _preserves_colors(A, g)
        if A.n <= 24:
            assert automorphism_group(A).order() == data.order


def test_bare_search_budget_pins():
    # the search itself on the same two plain rings, where branching on the
    # wrong point costs over 10^6 nodes; the pinned budget runs first, so
    # such a search fails at once instead of spending the default budget
    for A, threshold in ((_catalog_ring(55, [1, 4, 25, 25]), 250), (_catalog_ring(66, [1, 5, 30, 30]), 305)):
        data = _search(A, threshold)
        with pytest.raises(SearchBudgetExceeded):
            _search(A, threshold - 1)
        assert (data.order, tuple(orbit_partition(data.orbit))) == (aut_order(A), is_schurian(A).stabilizer_orbits)


def test_plain_stalls_past_100_are_decided_from_their_factors():
    # plain wreath products on which the bare search spends over 2 * 10^6
    # nodes (Z_121: over 10^7); each factor is a small cyclotomic or rank-2 ring
    c11 = cyclotomic(MultiplierGroup.from_generators(11, [3]))
    c17 = cyclotomic(MultiplierGroup.from_generators(17, [2]))
    budget = 10**3
    rings = [gen_wreath(c11, rank2(10), 1), gen_wreath(c11, rank2(11), 1),
             gen_wreath(c11, rank2(12), 1), gen_wreath(c17, rank2(8), 1),
             gen_wreath(rank2(11), rank2(13), 1), gen_wreath(rank2(13), rank2(11), 1)]
    shapes = [(A.n, sorted(map(len, A.classes))) for A in rings]
    assert shapes == [(110, [1, 5, 5, 99]), (121, [1, 5, 5, 110]), (132, [1, 5, 5, 121]),
                      (136, [1, 8, 8, 119]), (143, [1, 10, 132]), (143, [1, 12, 130])]
    for A in rings:
        data = _aut_data(A, budget)
        assert is_schurian(A, budget).schurian
        for g in data.stabilizer_gens:
            assert g[0] == 0 and is_color_automorphism(A, g)
        assert tuple(orbits_of_perms(A.n, data.stabilizer_gens)) == tuple(orbit_partition(data.orbit))
        # Schreier-Sims on Sym(11) wr Sym(13) still takes about 3 s
        if A.rank > 3:
            assert automorphism_group(A, budget).order() == aut_order(A, budget) == data.order


def test_search_degree_cap():
    # refused before the search allocates its n x n matrices or recurses
    A = rank2(MAX_SEARCH_DEGREE + 1)
    for decide in (is_schurian, aut_order, automorphism_group):
        with pytest.raises(CapExceeded):
            decide(A)


def test_search_allocation_is_bounded():
    # a rank-2 level is decided by its first read-off map, one frame, not by
    # one recursion per point each holding an n x n mask
    A = rank2(300)
    tracemalloc.start()
    try:
        _search(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    v = is_schurian(rank2(MAX_SEARCH_DEGREE))
    assert v.schurian and len(v.stabilizer_orbits) == 2
