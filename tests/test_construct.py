"""Builders: cyclotomic rings, tensor, generalized wreath, witness."""

import math
import random

import pytest

from schurring.arith import classify, omega_star
from schurring.catalog import unit_subgroups
from schurring.construct import (
    MultiplierGroup,
    cyclotomic,
    gen_wreath,
    is_cyclotomic,
    k_m,
    rank2,
    tensor,
    units,
    witness,
    witness_detailed,
)
from schurring.errors import IncompatibleSection, NotAnAGroup, NotCoprime
from schurring.sring import (
    group_ring,
    quotient,
    restrict,
    validate,
    wreath_decompositions,
)

W4 = validate(4, [[0], [2], [1, 3]])
W8 = validate(8, [[0], [4], [2, 6], [1, 3, 5, 7]])


def test_units():
    assert units(5) == [1, 2, 3, 4]
    assert units(12) == [1, 5, 7, 11]
    assert units(1) == [0]


def test_multiplier_group_closure():
    K = MultiplierGroup.from_generators(12, [5, 7])
    assert K.elements == (1, 5, 7, 11)
    with pytest.raises(ValueError):
        MultiplierGroup.from_generators(12, [4])
    for bad in (lambda: MultiplierGroup.from_generators(0, []), lambda: k_m(-4)):
        with pytest.raises(ValueError, match="must be positive"):
            bad()
    # reference: the products of the generators, straight from the definition
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 120)
        gens = rng.sample(units(n), min(len(units(n)), rng.randrange(4)))
        want = {1 % n}
        while True:
            more = want | {x * g % n for x in want for g in gens}
            if more == want:
                break
            want = more
        assert MultiplierGroup.from_generators(n, gens).elements == tuple(sorted(want)), (n, gens)


def test_k_m_examples():
    assert k_m(5).elements == (1, 4)
    assert k_m(12).elements == (1, 11)
    assert k_m(3).elements == (1, 2)
    assert k_m(2).elements == (1,)


def test_cyclotomic_examples():
    assert cyclotomic(MultiplierGroup.from_generators(6, [])) == group_ring(6)
    assert cyclotomic(MultiplierGroup.from_generators(5, units(5))) == rank2(5)
    A = cyclotomic(MultiplierGroup.from_generators(12, [5, 7]))
    assert A.classes == ((0,), (1, 5, 7, 11), (2, 10), (3, 9), (4, 8), (6,))
    assert A.rank == 6
    # the class of units has cardinality 4
    assert len(A.classes[1]) == 4


def test_cyclotomic_refuses_a_non_unit():
    with pytest.raises(ValueError):
        cyclotomic(MultiplierGroup(12, (5, 4), (1, 5)))


def test_cyclotomic_classes_are_the_multiplier_orbits():
    # reference orbits straight from the definition: {m * x % n : m in K}
    for n in range(1, 65):
        for K in unit_subgroups(n):
            seen, want = set(), []
            for x in range(n):
                if x not in seen:
                    orb = tuple(sorted({m * x % n for m in K.elements}))
                    seen.update(orb)
                    want.append(orb)
            A = cyclotomic(K)
            assert A.classes == tuple(want)
            # residues lie in range(n), so the multiplier group of Z_1 is {0}
            assert is_cyclotomic(A) == K, (n, K.elements)
        assert is_cyclotomic(cyclotomic(k_m(n))).elements == k_m(n).elements, n


def test_rank2_examples():
    assert rank2(2).classes == ((0,), (1,))
    assert rank2(4).classes == ((0,), (1, 2, 3))
    assert rank2(6).classes == ((0,), (1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        rank2(1)


def test_tensor_examples():
    assert tensor(group_ring(2), group_ring(3)) == group_ring(6)
    T = tensor(rank2(3), rank2(5))
    assert T.n == 15 and T.rank == 4
    lhs = tensor(cyclotomic(k_m(4)), cyclotomic(k_m(3)))
    rhs = cyclotomic(MultiplierGroup.from_generators(12, [7, 5]))
    # K_4 x K_3 maps to <7, 5> = {1,5,7,11} under CRT
    assert lhs == rhs
    with pytest.raises(NotCoprime):
        tensor(group_ring(2), group_ring(4))


def _tensor_by_crt(A1, A2):
    """Classes of the tensor product straight from the definition: the
    images of X x Y under the CRT bijection (x, y) -> x*e1 + y*e2."""
    n1, n2 = A1.n, A2.n
    n = n1 * n2
    # e1 = 1 mod n1, 0 mod n2; e2 the other way round
    e1 = n2 * pow(n2, -1, n1) if n1 > 1 else 0
    e2 = n1 * pow(n1, -1, n2) if n2 > 1 else 0
    return [[(x * e1 + y * e2) % n for x in X for y in Y] for X in A1.classes for Y in A2.classes]


def _gen_wreath_by_preimages(A1, A2, m):
    """Classes of the generalized wreath product straight from the
    definition: A1's classes lifted into U, and the full preimages of the
    A2-classes outside Z_m under the projection mod n2."""
    n1, n2 = A1.n, A2.n
    n = n1 * n2 // m
    lift = n2 // m  # i_{n1, n}: multiply by n/n1
    classes = [[x * lift % n for x in X] for X in A1.classes]
    for Y in A2.classes:
        if any(y % lift for y in Y):
            classes.append([y + j * n2 for y in Y for j in range(n1 // m)])
    return classes


def _canonical(classes):
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def test_tensor_matches_the_crt_definition(catalogs):
    pairs = 0
    for n1 in range(1, 61):
        for n2 in range(1, 60 // n1 + 1):
            if math.gcd(n1, n2) != 1:
                continue
            for A1 in catalogs[n1].rings:
                for A2 in catalogs[n2].rings:
                    A = tensor(A1, A2)
                    assert A.n == n1 * n2 and A.classes == _canonical(_tensor_by_crt(A1, A2)), (A1, A2)
                    pairs += 1
    assert pairs > 1000


def test_gen_wreath_matches_the_preimage_definition(catalogs):
    pairs = 0
    for n1 in range(1, 25):
        for n2 in range(1, 25):
            for m in range(1, math.gcd(n1, n2) + 1):
                if n1 % m or n2 % m or n1 * n2 // m > 24:
                    continue
                for A1 in catalogs[n1].rings:
                    for A2 in catalogs[n2].rings:
                        try:
                            A = gen_wreath(A1, A2, m)
                        except (IncompatibleSection, NotAnAGroup):
                            continue
                        want = _canonical(_gen_wreath_by_preimages(A1, A2, m))
                        assert A.n == n1 * n2 // m and A.classes == want, (A1, A2, m)
                        pairs += 1
    assert pairs > 1000


def test_tensor_rank_multiplies():
    for A1, A2 in [
        (W4, group_ring(3)),
        (rank2(4), cyclotomic(k_m(9))),
        (group_ring(5), rank2(7)),
    ]:
        assert tensor(A1, A2).rank == A1.rank * A2.rank


def test_gen_wreath_examples():
    assert gen_wreath(group_ring(2), group_ring(2), 1) == W4
    A = gen_wreath(cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2)
    assert A == W8
    with pytest.raises(ValueError):
        gen_wreath(cyclotomic(k_m(4)), rank2(9), 3)  # 3 does not divide 4
    for m in (0, -1):
        with pytest.raises(ValueError, match="must divide"):
            gen_wreath(group_ring(6), group_ring(6), m)
    with pytest.raises(IncompatibleSection):
        # group ring of Z_4 vs the coarser order-4 section of cyc(K_8)
        gen_wreath(group_ring(4), cyclotomic(k_m(8)), 4)


def test_gen_wreath_rank_formula():
    cases = [
        (group_ring(2), group_ring(2), 1),
        (cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2),
        (group_ring(6), group_ring(6), 3),
        (cyclotomic(k_m(9)), cyclotomic(k_m(9)), 3),
    ]
    for A1, A2, m in cases:
        A = gen_wreath(A1, A2, m)
        section_rank = quotient(A1, A1.n // m).rank
        assert A.rank == A1.rank + A2.rank - section_rank
        assert A.n == A1.n * A2.n // m


def test_gen_wreath_restriction_and_quotient_recover_inputs():
    for A1, A2, m in [
        (cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2),
        (group_ring(6), cyclotomic(k_m(6)), 2),
    ]:
        A = gen_wreath(A1, A2, m)
        assert restrict(A, A1.n) == A1
        assert quotient(A, A1.n // m) == A2
        u, l = A1.n, A1.n // m
        if l > 1 and u < A.n:
            assert (u, l) in wreath_decompositions(A)


def test_witness_8_9():
    w = witness_detailed(8, 9)
    assert w.ring.n == 72
    assert w.branch == "special"
    assert (w.a, w.b, w.c, w.d) == (4, 4, 3, 3)
    assert w.ring.rank == 15
    assert (24, 3) in wreath_decompositions(w.ring)
    # already validated by construction; re-validate from raw data
    revalidated = validate(72, [list(c) for c in w.ring.classes])
    assert revalidated == w.ring


def test_witness_rings_revalidate():
    # the builders skip validate, so the witnesses up to 300 and the glued
    # rings a12, a34 they are built from must each revalidate to themselves
    splits = [classify(n).nonschur_split for n in range(72, 301)]
    splits = [s for s in splits if s is not None]
    assert len(splits) == 14
    for n1, n2 in splits:
        w = witness_detailed(n1, n2)
        for A in (w.ring, w.a12, w.a34):
            assert validate(A.n, A.classes) == A, (n1, n2, A)


def test_witness_8_15():
    w = witness_detailed(8, 15)
    assert w.ring.n == 120
    assert w.branch == "special"
    assert (w.c, w.d) == (3, 5)


def test_witness_generic_branch():
    w = witness_detailed(9, 16)
    assert w.ring.n == 144
    assert w.branch == "generic"
    assert (w.a, w.b, w.c, w.d) == (3, 3, 4, 4)


def test_witness_argument_order_is_respected():
    # 8 may arrive as the second argument; the trace keeps the user's order
    w = witness_detailed(9, 8)
    assert w.n1 == 9 and w.n2 == 8 and w.branch == "special"
    assert w.ring == witness(8, 9)


def test_witness_intermediate_identity():
    # quotient of the first glued factor down to order n1 collapses to the
    # plain (or order-2 glued) wreath of the two cyclotomic factors
    w = witness_detailed(8, 9)
    got = quotient(w.a12, w.a12.n // 8)
    expected = gen_wreath(cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2)
    assert got == expected
    w = witness_detailed(9, 16)
    got = quotient(w.a12, w.a12.n // 9)
    expected = gen_wreath(cyclotomic(k_m(3)), cyclotomic(k_m(3)), 1)
    assert got == expected


def test_witness_rejects_bad_inputs():
    with pytest.raises(ValueError):
        witness(6, 5)  # omega_star(6) = 1
    with pytest.raises(ValueError):
        witness(8, 12)  # not coprime
    with pytest.raises(ValueError):
        witness(4, 9)  # omega_star(4) = 1


def test_witness_splits_every_admissible_pair():
    # once coprimality and omega_star >= 2 hold, both parts factor as the
    # branch needs, so no admissible pair is refused.  The witness glues
    # unchecked, so for each pair the four factors are rebuilt from (a, b,
    # c, d): every gluing's sections agree, each product restricts and
    # quotients back to its two factors, and the intermediate identity holds
    pairs = [(n1, n2) for n1 in range(1, 64) for n2 in range(n1 + 1, 4000 // n1 + 1)
             if math.gcd(n1, n2) == 1 and omega_star(n1) >= 2 and omega_star(n2) >= 2]
    assert len(pairs) == 939
    branches = set()
    for n1, n2 in pairs:
        w = witness_detailed(n1, n2)
        a, b, c, d = w.a, w.b, w.c, w.d
        branches.add(w.branch)
        if w.branch == "generic":
            glue12, glue34, top = c, d, w.n1
            expected = gen_wreath(cyclotomic(k_m(a)), cyclotomic(k_m(b)), 1)
        else:
            glue12, glue34, top = 2 * c, 2 * d, 8
            expected = gen_wreath(cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2)
        A1 = tensor(cyclotomic(k_m(a)), cyclotomic(k_m(c)))
        A2 = cyclotomic(k_m(b * c))
        A3 = cyclotomic(k_m(a * d))
        A4 = cyclotomic(k_m(b * d))
        for left, right, m, glued in [(A1, A2, glue12, w.a12), (A3, A4, glue34, w.a34),
                                      (w.a12, w.a34, top, w.ring)]:
            assert quotient(left, left.n // m) == restrict(right, m), (n1, n2, m)
            assert restrict(glued, left.n) == left, (n1, n2, m)
            assert quotient(glued, left.n // m) == right, (n1, n2, m)
        assert quotient(w.a12, w.a12.n // top) == expected, (n1, n2)
    assert branches == {"generic", "special"}
