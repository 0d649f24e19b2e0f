"""Permutation groups: chains, orbits, normality, the wreath product."""

import math
import random

import pytest

from conftest import (
    brute_wreath_elements,
    is_color_automorphism,
    sym_group_gens,
)
from schurring.construct import cyclotomic, gen_wreath, k_m
from schurring.errors import NotASubgroup, SectionActionMismatch
from schurring.perm import (
    PermGroup,
    closure,
    group_order,
    identity,
    inverse,
    is_normal_subgroup,
    mult,
    perm_gen_wreath,
    point_stabilizer_orbits,
    translations,
)
from schurring.sring import validate

W4 = validate(4, [[0], [2], [1, 3]])
W8 = validate(8, [[0], [4], [2, 6], [1, 3, 5, 7]])


def dihedral(n):
    """Shift and negation on Z_n, order 2n."""
    shift = tuple((x + 1) % n for x in range(n))
    neg = tuple((-x) % n for x in range(n))
    return PermGroup(n, [shift, neg])


def test_perm_primitives():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert mult(p, q) == (2, 1, 0)  # first p, then q
    assert mult(p, inverse(p)) == identity(3)


def test_translations_examples():
    assert group_order(translations(3)) == 3
    assert group_order(translations(1)) == 1
    assert group_order(translations(72)) == 72


def test_group_order_examples():
    assert group_order(translations(5)) == 5
    assert group_order(PermGroup(4, sym_group_gens(4))) == 24
    klein = PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    assert group_order(klein) == 4
    assert group_order(dihedral(6)) == 12


def test_order_against_brute_closure_random():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 7)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 4))]
        G = PermGroup(n, gens)
        assert group_order(G) == len(closure(n, gens))


def test_membership_products_and_nonmembers():
    rng = random.Random(5)
    for n, gens in [
        (6, dihedral(6).generators),
        (7, translations(7).generators),
        (5, [(1, 0, 2, 3, 4), (0, 1, 3, 2, 4)]),
    ]:
        G = PermGroup(n, gens)
        elements = closure(n, gens)
        for _ in range(100):
            w = identity(n)
            for _ in range(rng.randrange(1, 8)):
                w = mult(w, rng.choice(gens))
            assert w in G
        if len(elements) < math.factorial(n):
            misses = 0
            while misses < 100:
                p = tuple(rng.sample(range(n), n))
                if p in elements:
                    continue
                assert p not in G
                misses += 1


def from_cycles(n, *cycles):
    """The permutation of {0..n-1} with the given 1-based cycles."""
    p = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            p[a - 1] = b - 1
    return tuple(p)


def random_word(rng, gens):
    w = identity(len(gens[0]))
    for _ in range(rng.randrange(1, 12)):
        w = mult(w, rng.choice(gens))
    return w


M11_GENS = [from_cycles(11, tuple(range(1, 12))), from_cycles(11, (3, 7, 11, 8), (4, 10, 5, 6))]
M12_GENS = [g + (11,) for g in M11_GENS] + [
    from_cycles(12, (1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10))
]


def test_order_of_symmetric_and_alternating_groups():
    for k in range(1, 11):
        assert group_order(PermGroup(k, sym_group_gens(k))) == math.factorial(k)
        three_cycles = [from_cycles(k, (1, 2, i)) for i in range(3, k + 1)]
        assert group_order(PermGroup(k, three_cycles)) == max(math.factorial(k) // 2, 1)


def test_order_of_cyclic_groups_with_mixed_cycle_lengths():
    # the powers of one generator fixing the first base point are themselves
    # a residue, whose own level needs checking: order lcm(cycle lengths)
    for cycles in [((1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11, 12)),
                   ((1, 2), (3, 4, 5), (6, 7, 8, 9, 10)),
                   ((1, 2, 3, 4), (5, 6, 7, 8, 9, 10))]:
        n = max(max(c) for c in cycles)
        want = math.lcm(*(len(c) for c in cycles))
        assert group_order(PermGroup(n, [from_cycles(n, *cycles)])) == want


def test_order_of_imprimitive_wreath_product():
    # Sym(3) wr Sym(4) on 12 points: Sym(3) on the block {1, 2, 3}, and
    # Sym(4) permuting the blocks {1,2,3}, {4,5,6}, {7,8,9}, {10,11,12}
    base = [from_cycles(12, (1, 2)), from_cycles(12, (1, 2, 3))]
    top = [from_cycles(12, (1, 4), (2, 5), (3, 6)),
           from_cycles(12, (1, 4, 7, 10), (2, 5, 8, 11), (3, 6, 9, 12))]
    G = PermGroup(12, base + top)
    assert group_order(G) == 6**4 * 24 == 31104
    assert from_cycles(12, (10, 11, 12)) in G
    assert from_cycles(12, (3, 4)) not in G


def test_order_and_membership_of_mathieu_groups():
    rng = random.Random(7)
    for n, gens, order in ((11, M11_GENS, 7920), (12, M12_GENS, 95040)):
        G = PermGroup(n, gens)
        assert group_order(G) == order
        for _ in range(50):
            assert random_word(rng, gens) in G
        assert from_cycles(n, (1, 2)) not in G
        assert from_cycles(n, (5, 9)) not in G
    assert M12_GENS[2] not in PermGroup(12, M12_GENS[:2])


def test_point_stabilizer_orbits_examples():
    assert point_stabilizer_orbits(translations(6), 0) == [
        (0,), (1,), (2,), (3,), (4,), (5,)
    ]
    assert point_stabilizer_orbits(PermGroup(4, sym_group_gens(4)), 0) == [
        (0,), (1, 2, 3)
    ]
    assert point_stabilizer_orbits(dihedral(4), 0) == [(0,), (1, 3), (2,)]


def test_is_normal_subgroup_examples():
    sym3 = PermGroup(3, sym_group_gens(3))
    alt3 = PermGroup(3, [(1, 2, 0)])
    swap = PermGroup(3, [(1, 0, 2)])
    assert is_normal_subgroup(sym3, alt3)
    assert not is_normal_subgroup(sym3, swap)
    assert is_normal_subgroup(dihedral(4), translations(4))
    with pytest.raises(NotASubgroup):
        is_normal_subgroup(translations(4), dihedral(4))
    with pytest.raises(NotASubgroup):
        is_normal_subgroup(translations(4), translations(5))


def test_perm_gen_wreath_contains_translations():
    G = perm_gen_wreath(translations(2), translations(6), 6, 2, 1)
    shift = tuple((x + 1) % 6 for x in range(6))
    assert shift in G
    assert group_order(G) == 6


def test_perm_gen_wreath_degree4():
    sym2 = PermGroup(2, sym_group_gens(2))
    G = perm_gen_wreath(sym2, sym2, 4, 2, 2)
    assert group_order(G) == 8
    elements = closure(4, G.generators)
    # the full wreath product is exactly the color automorphisms of W4
    assert all(is_color_automorphism(W4, p) for p in elements)


def test_perm_gen_wreath_equals_brute_force_small_degrees():
    sym2 = PermGroup(2, sym_group_gens(2))
    cases = [
        (sym2, sym2, 4, 2, 2),
        (dihedral(4), dihedral(4), 8, 4, 2),
        (sym2, translations(6), 6, 2, 1),
        (dihedral(6), PermGroup(3, sym_group_gens(3)), 6, 6, 2),
    ]
    for delta1, delta0, n, u, l in cases:
        G = perm_gen_wreath(delta1, delta0, n, u, l)
        want = brute_wreath_elements(delta1, delta0, n, u, l)
        got = closure(n, G.generators)
        assert got == want


def test_perm_gen_wreath_respects_coset_blocks():
    G = perm_gen_wreath(dihedral(4), dihedral(4), 8, 4, 2)
    # every generator permutes the U-cosets (residues mod n/u = 2)
    for g in G.generators:
        images = {x % 2: g[x] % 2 for x in range(8)}
        assert all(g[x] % 2 == images[x % 2] for x in range(8))


def test_perm_gen_wreath_generators_are_color_automorphisms():
    A1 = cyclotomic(k_m(4))
    A = gen_wreath(A1, A1, 2)  # = W8
    G = perm_gen_wreath(dihedral(4), dihedral(4), 8, 4, 2)
    for g in G.generators:
        assert is_color_automorphism(A, g)
    A6 = cyclotomic(k_m(6))
    B = gen_wreath(A6, A6, 3)  # over Z_12
    H = perm_gen_wreath(dihedral(6), dihedral(6), 12, 6, 2)
    for g in H.generators:
        assert is_color_automorphism(B, g)


def test_perm_gen_wreath_section_mismatch():
    # delta1 cyclic on U/L = Z_3 but delta0 also negates the section
    with pytest.raises(SectionActionMismatch):
        perm_gen_wreath(translations(3), dihedral(9), 9, 3, 1)


def test_perm_gen_wreath_preconditions():
    with pytest.raises(ValueError):
        perm_gen_wreath(translations(3), translations(6), 6, 3, 2)  # 2 ∤ 3
    with pytest.raises(ValueError):
        perm_gen_wreath(translations(4), translations(6), 6, 4, 1)  # 4 ∤ 6
    with pytest.raises(ValueError):
        # delta1 must contain the translations of Z_u
        perm_gen_wreath(PermGroup(2, []), translations(4), 4, 2, 1)
