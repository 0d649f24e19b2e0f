"""Builders: cyclotomic rings, tensor, generalized wreath, witness."""

import pytest

from schurring.catalog import unit_subgroups
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
from schurring.errors import IncompatibleSection, NotCoprime
from schurring.sring import (
    Section,
    group_ring,
    is_cyclotomic,
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


def test_k_m_examples():
    assert k_m(5).elements == (1, 4)
    assert k_m(12).elements == (1, 11)
    assert k_m(3).elements == (1, 2)
    assert k_m(2).elements == (1,)


def test_cyclotomic_examples():
    assert cyclotomic(MultiplierGroup.from_generators(6, [])).key() == group_ring(6).key()
    assert cyclotomic(MultiplierGroup.from_generators(5, units(5))).key() == rank2(5).key()
    A = cyclotomic(MultiplierGroup.from_generators(12, [5, 7]))
    assert A.classes == ((0,), (1, 5, 7, 11), (2, 10), (3, 9), (4, 8), (6,))
    assert A.rank == 6
    # the class of units has cardinality 4
    assert len(A.classes[1]) == 4


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
            assert is_cyclotomic(A) is not None


def test_rank2_examples():
    assert rank2(2).classes == ((0,), (1,))
    assert rank2(4).classes == ((0,), (1, 2, 3))
    assert rank2(6).classes == ((0,), (1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        rank2(1)


def test_tensor_examples():
    assert tensor(group_ring(2), group_ring(3)).key() == group_ring(6).key()
    T = tensor(rank2(3), rank2(5))
    assert T.n == 15 and T.rank == 4
    lhs = tensor(cyclotomic(k_m(4)), cyclotomic(k_m(3)))
    rhs = cyclotomic(MultiplierGroup.from_generators(12, [7, 5]))
    # K_4 x K_3 maps to <7, 5> = {1,5,7,11} under CRT
    assert lhs.key() == rhs.key()
    with pytest.raises(NotCoprime):
        tensor(group_ring(2), group_ring(4))


def test_tensor_rank_multiplies():
    for A1, A2 in [
        (W4, group_ring(3)),
        (rank2(4), cyclotomic(k_m(9))),
        (group_ring(5), rank2(7)),
    ]:
        assert tensor(A1, A2).rank == A1.rank * A2.rank


def test_gen_wreath_examples():
    assert gen_wreath(group_ring(2), group_ring(2), 1).key() == W4.key()
    A = gen_wreath(cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2)
    assert A.key() == W8.key()
    with pytest.raises(ValueError):
        gen_wreath(cyclotomic(k_m(4)), rank2(9), 3)  # 3 does not divide 4
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
        assert restrict(A, A1.n).key() == A1.key()
        assert quotient(A, A1.n // m).key() == A2.key()
        u, l = A1.n, A1.n // m
        if l > 1 and u < A.n:
            assert Section(u, l) in wreath_decompositions(A)


def test_witness_8_9():
    w = witness_detailed(8, 9)
    assert w.ring.n == 72
    assert w.branch == "special"
    assert (w.a, w.b, w.c, w.d) == (4, 4, 3, 3)
    assert w.ring.rank == 15
    assert Section(24, 3) in wreath_decompositions(w.ring)
    # already validated by construction; re-validate from raw data
    revalidated = validate(72, [list(c) for c in w.ring.classes])
    assert revalidated.key() == w.ring.key()


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
    assert w.ring.key() == witness(8, 9).key()


def test_witness_intermediate_identity():
    # quotient of the first glued factor down to order n1 collapses to the
    # plain (or order-2 glued) wreath of the two cyclotomic factors
    w = witness_detailed(8, 9)
    got = quotient(w.a12, w.a12.n // 8)
    expected = gen_wreath(cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2)
    assert got.key() == expected.key()
    w = witness_detailed(9, 16)
    got = quotient(w.a12, w.a12.n // 9)
    expected = gen_wreath(cyclotomic(k_m(3)), cyclotomic(k_m(3)), 1)
    assert got.key() == expected.key()


def test_witness_rejects_bad_inputs():
    with pytest.raises(ValueError):
        witness(6, 5)  # omega_star(6) = 1
    with pytest.raises(ValueError):
        witness(8, 12)  # not coprime
    with pytest.raises(ValueError):
        witness(4, 9)  # omega_star(4) = 1
