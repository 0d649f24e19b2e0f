"""Permutation groups: chains, orbits, normality, the wreath product."""

import hashlib
import math
import random

import numpy as np
import pytest

from conftest import (
    brute_wreath_elements,
    closure,
    inverse,
    is_color_automorphism,
    is_normal_subgroup,
    mult,
    orbits_of_perms,
    sym_group_gens,
)
from schurring import perm
from schurring.arith import classify
from schurring.construct import cyclotomic, gen_wreath, k_m, witness
from schurring.errors import SectionActionMismatch
from schurring.perm import (
    PermGroup,
    identity,
    merge_orbits,
    orbit_partition,
    _add_residue,
    _cyclic_level,
    _Level,
    _schreier_sims,
    _sift,
    perm_gen_wreath,
    translations,
)
from schurring.schurity import aut_order, automorphism_group
from schurring.sring import quotient, restrict, validate, wreath_decompositions

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
    assert translations(3).order() == 3
    assert translations(1).order() == 1
    assert translations(1).generators == []
    assert translations(72).order() == 72


def test_group_order_examples():
    assert translations(5).order() == 5
    assert PermGroup(4, sym_group_gens(4)).order() == 24
    klein = PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    assert klein.order() == 4
    assert dihedral(6).order() == 12


def test_order_against_brute_closure_random():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 7)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 4))]
        G = PermGroup(n, gens)
        assert G.order() == len(closure(n, gens))


def orbits_by_union_find(n, perms, blocks=()):
    """The union-find orbit routine that `merge_orbits` replaced, kept as its
    reference: the blocks joined by x ~ p(x), each sorted, by least point."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for b in blocks:
        for x in b[1:]:
            union(b[0], x)
    for p in perms:
        for i, j in enumerate(p):
            union(i, j)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted((tuple(sorted(v)) for v in groups.values()), key=lambda t: t[0])


def random_perm(rng, n):
    """A shuffle, a few transpositions, or one long cycle in random order."""
    p = list(range(n))
    kind = rng.randrange(3)
    if kind == 0:
        rng.shuffle(p)
    elif kind == 1:
        for _ in range(rng.randrange(4)):
            i, j = rng.randrange(n), rng.randrange(n)
            p[i], p[j] = p[j], p[i]
    else:
        cyc = rng.sample(range(n), rng.randint(1, n))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a] = b
    return tuple(p)


def random_blocks(rng, n):
    points = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(n))) if n > 1 else []
    return [points[a:b] for a, b in zip([0] + cuts, cuts + [n])]


def test_orbit_labels_match_union_find():
    rng = random.Random(5)
    for _ in range(600):
        n = rng.randint(1, 40)
        perms = [random_perm(rng, n) for _ in range(rng.randrange(4))]
        assert orbits_of_perms(n, perms) == orbits_by_union_find(n, perms)
        # incremental: merge onto a given partition, as least-point labels
        blocks = random_blocks(rng, n)
        labels = np.empty(n, dtype=np.intp)
        for b in blocks:
            labels[b] = min(b)
        expected = orbits_by_union_find(n, perms, blocks)
        merged = merge_orbits(labels, perms)
        assert orbit_partition(merged) == expected
        assert all(merged[x] == o[0] for o in expected for x in o)
        assert orbit_partition(labels) == orbits_by_union_find(n, (), blocks)


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
        assert PermGroup(k, sym_group_gens(k)).order() == math.factorial(k)
        three_cycles = [from_cycles(k, (1, 2, i)) for i in range(3, k + 1)]
        assert PermGroup(k, three_cycles).order() == max(math.factorial(k) // 2, 1)


def test_order_of_cyclic_groups_with_mixed_cycle_lengths():
    # the powers of one generator fixing the first base point are themselves
    # a residue, whose own level needs checking: order lcm(cycle lengths)
    for cycles in [((1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11, 12)),
                   ((1, 2), (3, 4, 5), (6, 7, 8, 9, 10)),
                   ((1, 2, 3, 4), (5, 6, 7, 8, 9, 10))]:
        n = max(max(c) for c in cycles)
        want = math.lcm(*(len(c) for c in cycles))
        assert PermGroup(n, [from_cycles(n, *cycles)]).order() == want


def test_order_of_imprimitive_wreath_product():
    # Sym(3) wr Sym(4) on 12 points: Sym(3) on the block {1, 2, 3}, and
    # Sym(4) permuting the blocks {1,2,3}, {4,5,6}, {7,8,9}, {10,11,12}
    base = [from_cycles(12, (1, 2)), from_cycles(12, (1, 2, 3))]
    top = [from_cycles(12, (1, 4), (2, 5), (3, 6)),
           from_cycles(12, (1, 4, 7, 10), (2, 5, 8, 11), (3, 6, 9, 12))]
    G = PermGroup(12, base + top)
    assert G.order() == 6**4 * 24 == 31104
    assert from_cycles(12, (10, 11, 12)) in G
    assert from_cycles(12, (3, 4)) not in G


def test_order_and_membership_of_mathieu_groups():
    rng = random.Random(7)
    for n, gens, order in ((11, M11_GENS, 7920), (12, M12_GENS, 95040)):
        G = PermGroup(n, gens)
        assert G.order() == order
        for _ in range(50):
            assert random_word(rng, gens) in G
        assert from_cycles(n, (1, 2)) not in G
        assert from_cycles(n, (5, 9)) not in G
    assert M12_GENS[2] not in PermGroup(12, M12_GENS[:2])


def chain_of(n, gens, prefix=()):
    """The chain of gens, built on trivial levels at the base points
    `prefix` given in advance."""
    dtype = np.min_scalar_type(max(n - 1, 0))
    levels = [_Level(z, n, dtype) for z in prefix]
    _schreier_sims(levels, gens, dtype)
    return levels


def check_levels(levels, n):
    """The invariants of every level, trivial ones included:
    the representatives are permutations, whose column at the base point
    is the orbit, their inverses invert them, `pos` numbers the orbit, the
    orbit is closed under the level's generators, each stored with its
    inverse, and those generators fix every earlier base point."""
    ident = np.arange(n)
    for i, lvl in enumerate(levels):
        orbit, size = lvl.u[:, lvl.point], len(lvl.u)
        assert lvl.u.shape == lvl.uinv.shape == (size, n)
        assert (np.sort(lvl.u, axis=1) == ident).all()
        assert (np.take_along_axis(lvl.uinv, lvl.u.astype(np.intp), axis=1) == ident).all()
        assert (lvl.u[0] == ident).all()
        assert (lvl.pos[orbit] == np.arange(size)).all()
        assert (lvl.pos >= 0).sum() == size
        assert len(lvl.gens) == len(lvl.ginv) == len(lvl.checked)
        for g, ginv in zip(lvl.gens, lvl.ginv):
            assert (ginv[g] == ident).all()
            assert (lvl.pos[g[orbit]] >= 0).all()
            assert all(g[above.point] == above.point for above in levels[:i])


def check_chain(levels, n):
    """`check_levels`, and every level has a strong generator: a chain
    built without a prefix has no trivial level."""
    check_levels(levels, n)
    assert all(lvl.gens for lvl in levels)


def long_cycles(n, lengths, rng):
    """One permutation of n points with disjoint cycles of the given lengths
    on randomly chosen points."""
    points = rng.sample(range(n), sum(lengths))
    p = list(range(n))
    for length in lengths:
        cyc, points = points[:length], points[length:]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a] = b
    return tuple(p)


def chain_cases(rng):
    """Random groups, long cycles and dihedral groups, as (n, gens)."""
    cases = [(n, [random_perm(rng, n) for _ in range(rng.randint(1, 4))])
             for n in (rng.randint(2, 12) for _ in range(60))]
    for n in (2, 3, 64, 97, 255, 300):
        cases.append((n, [long_cycles(n, [n], rng)]))
    cases += [(n, dihedral(n).generators) for n in (97, 300)]
    for lengths in ((4, 9, 25), (7, 8, 9, 11), (3, 4, 5, 7, 11, 13, 16, 17, 19, 23, 29, 31, 37, 41)):
        n = sum(lengths) + rng.randint(0, 20)
        cases.append((n, [long_cycles(n, lengths, rng)]))
    return cases


def chain_order(levels):
    return math.prod(len(lvl.u) for lvl in levels)


def test_chain_invariants_on_random_groups_and_long_cycles():
    for n, gens in chain_cases(random.Random(13)):
        levels = chain_of(n, gens)
        check_chain(levels, n)
        order = chain_order(levels)
        if len(gens) == 1:
            # a cyclic group: the order is the lcm of the cycle lengths
            lengths = map(len, orbits_of_perms(n, gens))
            assert order == math.lcm(*lengths)
        elif order <= 5000:
            assert order == len(closure(n, gens))


def test_chain_on_a_prescribed_base_prefix():
    # levels built in advance at any points stay the first base points, in
    # order, and the chain built on them is a chain of the same group; a
    # prefix level may stay trivial, so only the levels past the prefix
    # need a strong generator
    rng = random.Random(19)
    for n, gens in chain_cases(random.Random(13)):
        prefix = rng.sample(range(n), rng.randint(1, min(n, 10)))
        levels = chain_of(n, gens, prefix)
        assert [lvl.point for lvl in levels[:len(prefix)]] == prefix
        assert chain_order(levels) == chain_order(chain_of(n, gens))
        check_levels(levels, n)
        assert all(lvl.gens for lvl in levels[len(prefix):])


def test_witness_chains_are_pinned():
    # the base and the basic orbit sizes of two searched automorphism
    # groups: neither the batches the Schreier generators are sifted in nor
    # skipping the ones that sifted before moves them
    for (n1, n2), base, sizes in (((8, 9), [0, 2, 1], [72, 6, 6]),
                                  ((12, 25), [0, 4, 3, 2, 1], [300, 10, 15, 15, 15])):
        G = automorphism_group(witness(n1, n2))
        assert G.order() == math.prod(sizes)
        assert [lvl.point for lvl in G._chain] == base
        assert [len(lvl.u) for lvl in G._chain] == sizes


WITNESS_ORDERS = (72, 120, 144, 168, 180, 200, 216, 225, 240, 252, 264, 280, 288, 300)


@pytest.fixture(scope="module")
def witness_chains():
    """The chains of the automorphism groups of the 14 witness rings
    72 <= n <= 300, built while `_unsifted` counts the Schreier rows
    formed and the rows among them handed on to be sifted."""
    groups = [automorphism_group(witness(*classify(n).nonschur_split)) for n in WITNESS_ORDERS]
    counts = {"formed": 0, "sifted": 0}
    unsifted = perm._unsifted

    def counting(batch, sifted):
        new = unsifted(batch, sifted)
        counts["formed"] += len(batch)
        counts["sifted"] += len(new)
        return new

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perm, "_unsifted", counting)
        chains = [G._chain for G in groups]
    return chains, counts


def test_witness_chains_are_bit_identical(witness_chains):
    # one sha256 over every level of the 14 chains: base point, the
    # representatives and their inverses, pos, and the strong generators
    # with their inverses; taken from the doubling-round level 0 and the
    # unabridged Schreier scan
    h = hashlib.sha256()
    for levels in witness_chains[0]:
        for lvl in levels:
            h.update(str(lvl.point).encode())
            for a in (lvl.u, lvl.uinv, np.asarray(lvl.pos, np.int64), *lvl.gens, *lvl.ginv):
                h.update(a.dtype.str.encode() + str(a.shape).encode() + a.tobytes())
    assert h.hexdigest() == "5e4ce2b1447abf4f5a206b783be96dfca914269e127df5e83e621d30a70bf585"


def test_witness_schreier_row_counts(witness_chains):
    # level 0 in closed form forms none of the translation's Schreier
    # generators, and each other generator's rows stop at their period:
    # 16,483 rows formed and 1,349 sifted before both
    assert witness_chains[1] == {"formed": 3389, "sifted": 1145}


def random_n_cycle(rng, n):
    """x -> x + 1 relabelled by a random bijection of the n points, with
    the relabelling."""
    label = rng.sample(range(n), n)
    c = [0] * n
    for x in range(n):
        c[label[x]] = label[(x + 1) % n]
    return tuple(c), label


def test_cyclic_level_matches_the_doubling_rounds_on_the_shift():
    for n in (2, 3, 7, 64, 300):
        shift = translations(n).generators[0]
        dtype = np.min_scalar_type(n - 1)
        grown = _Level(0, n, dtype)
        grown.add_gen(np.array(shift, dtype))
        closed = _cyclic_level(shift, dtype)
        assert closed.cyclic and closed.checked == [n]
        for a, b in ((grown.u, closed.u), (grown.uinv, closed.uinv), (grown.pos, closed.pos),
                     (grown.gens[0], closed.gens[0]), (grown.ginv[0], closed.ginv[0])):
            assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()
        assert closed.u.flags.c_contiguous and closed.uinv.flags.c_contiguous


def test_cyclic_level_schreier_rows_are_periodic():
    # row k of s is sigma_k(s) = c^k * s * c^-j; sigma_a(sigma_b(s)) =
    # sigma_(a+b)(s), so the rows repeat with a period p | n, and the first
    # k > 0 at which row 0 comes back is that period
    rng = random.Random(23)
    for n in (2, 6, 12, 30, 45):
        c, label = random_n_cycle(rng, n)
        lvl = _cyclic_level(c, np.min_scalar_type(n - 1))
        for s in [random_perm(rng, n) for _ in range(6)] + [
                tuple(label[a * label.index(x) % n] for x in range(n)) for a in range(1, n)
                if math.gcd(a, n) == 1]:
            s = np.array(s)
            rows = lvl.uinv[lvl.pos[s[lvl.u[:, 0]]]][np.arange(n)[:, None], s[lvl.u]]
            assert (rows[:, 0] == 0).all()
            p = next(k for k in range(1, n + 1) if (rows[k % n] == rows[0]).all())
            assert n % p == 0
            assert (rows == rows[np.arange(n) % p]).all()


def test_chain_on_a_cyclic_first_generator():
    # an n-cycle other than x -> x + 1 first, then random extras: some are
    # affine maps x -> ax in the cycle's coordinates, which keep the group
    # small enough to list; the generic path, on a prescribed trivial level
    # at 0, is the reference for the order and for membership
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 40)
        c, label = random_n_cycle(rng, n)
        extras = []
        for _ in range(rng.randrange(4)):
            if rng.randrange(2):
                a = rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1] or [1])
                extras.append(tuple(label[a * label.index(x) % n] for x in range(n)))
            else:
                extras.append(random_perm(rng, n))
        gens = [c] + extras
        levels = chain_of(n, gens)
        assert levels[0].cyclic and levels[0].point == 0
        check_chain(levels, n)
        generic = chain_of(n, gens, (0,))
        assert not generic[0].cyclic
        order = chain_order(levels)
        assert order == chain_order(generic)
        if order <= 5000:
            assert order == len(closure(n, gens))
        G = PermGroup(n, gens)
        for p in [random_word(rng, gens) for _ in range(10)] + [
                tuple(rng.sample(range(n), n)) for _ in range(10)]:
            in_generic = _sift(generic, 0, np.array([p], generic[0].u.dtype), n)[1] is None
            assert (p in G) == in_generic


def test_period_cut_keeps_the_whole_period():
    # groups whose stabilizer needs the last Schreier row of a period: a
    # scan that stops one row short of the period finds half the order;
    # each group also runs relabelled, so that its n-cycle is not x -> x + 1
    rng = random.Random(37)
    for n, s, order in ((6, (2, 1, 3, 5, 4, 0), 48), (8, (6, 7, 4, 5, 2, 3, 0, 1), 32),
                        (6, (0, 5, 1, 3, 2, 4), 48)):
        shift = translations(n).generators[0]
        label = rng.sample(range(n), n)
        relabel = [label.index(x) for x in range(n)]
        for gens in ([shift, s], [tuple(label[g[relabel[x]]] for x in range(n)) for g in (shift, s)]):
            levels = chain_of(n, gens)
            assert levels[0].cyclic
            assert chain_order(levels) == len(closure(n, gens)) == order


def test_chain_on_a_first_generator_that_is_not_an_n_cycle():
    rng = random.Random(31)
    for n, first in ((5, (1, 2, 3, 0, 4)), (6, (1, 0, 3, 4, 2, 5)), (7, (0, 2, 3, 4, 5, 6, 1)),
                     (8, (1, 0, 3, 2, 5, 4, 7, 6)), (4, (0, 1, 2, 3))):
        dtype = np.min_scalar_type(n - 1)
        assert _cyclic_level(first, dtype) is None
        gens = [first, random_perm(rng, n), translations(n).generators[0]]
        levels = chain_of(n, gens)
        assert not any(lvl.cyclic for lvl in levels)
        check_chain(levels, n)
        assert chain_order(levels) == len(closure(n, gens))


def test_cyclic_level_edge_degrees():
    # one point: the only permutation is the identity, which is no 1-cycle
    # to build a level from; two points: the swap is the 2-cycle
    assert _cyclic_level((0,), np.uint8) is None
    assert chain_of(1, [(0,)]) == []
    assert PermGroup(1, [(0,)]).order() == 1
    levels = chain_of(2, [(1, 0)])
    assert len(levels) == 1 and levels[0].cyclic
    check_chain(levels, 2)
    assert levels[0].u.tolist() == levels[0].uinv.tolist() == [[0, 1], [1, 0]]
    G = PermGroup(2, [(1, 0)])
    assert G.order() == 2 and (1, 0) in G and (0, 1) in G


def test_sift_leaves_its_batch_unchanged():
    rng = random.Random(17)
    for n in (6, 12, 40):
        gens = [random_perm(rng, n) for _ in range(3)] + [long_cycles(n, [n], rng)]
        levels = chain_of(n, gens)
        members = [random_word(rng, gens) for _ in range(20)]
        strangers = [tuple(rng.sample(range(n), n)) for _ in range(20)]
        for rows in (members, strangers, members + strangers):
            for start in range(len(levels)):
                batch = np.array(rows, dtype=levels[0].u.dtype)
                before = batch.copy()
                _sift(levels, start, batch, n)
                assert (batch == before).all()
        rest, hit = _sift(levels, 0, np.array(members, dtype=levels[0].u.dtype), n)
        assert hit is None and (rest == np.arange(n)).all()


def test_add_residue_refuses_a_base_point_met_again():
    # a residue that sifted through every level fixes every base point; one
    # that moves a base point would start a second level at it, and a chain
    # built that way could grow without bound
    n = 6
    levels = chain_of(n, [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5)])
    assert [lvl.point for lvl in levels] == [0, 1]
    moves_base = np.array([0, 2, 1, 3, 4, 5], dtype=levels[0].u.dtype)
    with pytest.raises(RuntimeError, match="already a base point"):
        _add_residue(levels, (0, moves_base, len(levels)), -1)
    assert [lvl.point for lvl in levels] == [0, 1]


def test_is_normal_subgroup_examples():
    sym3 = PermGroup(3, sym_group_gens(3))
    alt3 = PermGroup(3, [(1, 2, 0)])
    swap = PermGroup(3, [(1, 0, 2)])
    assert is_normal_subgroup(sym3, alt3)
    assert not is_normal_subgroup(sym3, swap)
    assert is_normal_subgroup(dihedral(4), translations(4))
    with pytest.raises(ValueError):
        is_normal_subgroup(translations(4), dihedral(4))
    with pytest.raises(ValueError):
        is_normal_subgroup(translations(4), translations(5))


def test_perm_gen_wreath_contains_translations():
    G = perm_gen_wreath(translations(2), translations(6), 1)
    shift = tuple((x + 1) % 6 for x in range(6))
    assert shift in G
    assert G.order() == 6


def test_perm_gen_wreath_degree4():
    sym2 = PermGroup(2, sym_group_gens(2))
    G = perm_gen_wreath(sym2, sym2, 2)
    assert G.order() == 8
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
        G = perm_gen_wreath(delta1, delta0, l)
        want = brute_wreath_elements(delta1, delta0, n, u, l)
        got = closure(n, G.generators)
        assert got == want


def test_perm_gen_wreath_respects_coset_blocks():
    G = perm_gen_wreath(dihedral(4), dihedral(4), 2)
    # every generator permutes the U-cosets (residues mod n/u = 2)
    for g in G.generators:
        images = {x % 2: g[x] % 2 for x in range(8)}
        assert all(g[x] % 2 == images[x % 2] for x in range(8))


def test_perm_gen_wreath_generators_are_color_automorphisms():
    A1 = cyclotomic(k_m(4))
    A = gen_wreath(A1, A1, 2)  # = W8
    G = perm_gen_wreath(dihedral(4), dihedral(4), 2)
    for g in G.generators:
        assert is_color_automorphism(A, g)
    A6 = cyclotomic(k_m(6))
    B = gen_wreath(A6, A6, 3)  # over Z_12
    H = perm_gen_wreath(dihedral(6), dihedral(6), 2)
    for g in H.generators:
        assert is_color_automorphism(B, g)


def test_perm_gen_wreath_section_mismatch():
    # delta1 cyclic on U/L = Z_3 but delta0 also negates the section
    with pytest.raises(SectionActionMismatch):
        perm_gen_wreath(translations(3), dihedral(9), 1)


def test_perm_gen_wreath_preconditions():
    with pytest.raises(ValueError):
        perm_gen_wreath(translations(3), translations(3), 2)  # 2 ∤ 3
    with pytest.raises(ValueError):
        perm_gen_wreath(translations(4), translations(6), 1)  # 4 ∤ 6
    for delta1, l in ((PermGroup(0, []), 1), (translations(3), 0)):
        with pytest.raises(ValueError, match=r"need l \| u \| n"):
            perm_gen_wreath(delta1, translations(6), l)
    with pytest.raises(ValueError):
        # delta1 must contain the translations of Z_u
        perm_gen_wreath(PermGroup(2, []), translations(4), 1)
    with pytest.raises(ValueError):
        # x -> x + 2 and x -> 3x on Z_4 respect the blocks of Z_4 / Z_2, but miss x -> x + 1
        perm_gen_wreath(PermGroup(4, [(2, 3, 0, 1), (0, 3, 2, 1)]), translations(4), 2)


def section_groups(A, u, l):
    return automorphism_group(restrict(A, u)), automorphism_group(quotient(A, l))


def test_perm_gen_wreath_with_a_symmetric_section():
    # U/L = Z_9 with section group Sym(9): the section image has 9! elements,
    # and the wreath product of the section groups is the whole of aut(A)
    evens = [x for x in range(2, 36, 2) if x != 18]
    A = validate(36, [[0], [18], evens, list(range(1, 36, 2))])
    G = perm_gen_wreath(*section_groups(A, 18, 2), 2)
    assert G.order() == aut_order(A) == 69_039_237_051_187_200
    assert all(is_color_automorphism(A, g) for g in G.generators)


def test_perm_gen_wreath_of_a_minimal_nonschurian_ring_mismatches():
    # the witnesses are minimal non-schurian, so by the Evdokimov-Ponomarenko
    # criterion the automorphism groups of their (schurian) sections induce
    # different groups on U/L at every wreath decomposition
    for w in (witness(8, 9), witness(12, 25)):
        decompositions = wreath_decompositions(w)
        assert decompositions
        for u, l in decompositions:
            with pytest.raises(SectionActionMismatch,
                               match=r"\|delta0 image\| = \d+, \|delta1 image\| = \d+"):
                perm_gen_wreath(*section_groups(w, u, l), l)


def test_perm_gen_wreath_section_images_of_equal_order_differ():
    # the maps z -> az + b of Z_8 with a in {1, 3} and with a in {1, 5}:
    # two groups of order 16, told apart by membership, not by order
    delta1 = PermGroup(16, [translations(16).generators[0], tuple(3 * x % 16 for x in range(16))])
    delta0 = PermGroup(8, [translations(8).generators[0], tuple(5 * x % 8 for x in range(8))])
    with pytest.raises(SectionActionMismatch, match=r"= 16, \|delta1 image\| = 16"):
        perm_gen_wreath(delta1, delta0, 2)


def random_block_perm(rng, u, ul):
    """A random permutation of Z_u that permutes the residues mod ul: a
    whole random block map, or one transposition inside a block."""
    if rng.randrange(2):
        x = rng.randrange(u)
        return from_cycles(u, (x + 1, (x + ul) % u + 1))
    sigma = rng.sample(range(ul), ul)
    p = [0] * u
    for z in range(ul):
        targets = rng.sample(range(sigma[z], u, ul), u // ul)
        for x, y in zip(range(z, u, ul), targets):
            p[x] = y
    return tuple(p)


def test_perm_gen_wreath_kernel_and_image_make_delta1():
    # delta1 on U = Z_u permutes the residues mod u/l; delta0 on G/L =
    # Z_{2u/l} moves the two U-cosets and induces delta1's section image on
    # each, so the wreath product is delta0 with the kernel on both cosets
    # each group runs with its generators as drawn; with a kernel element, a
    # swap inside one L-coset, first, so that the first level it starts is
    # based in U; and shuffled
    rng, reorder = random.Random(11), random.Random(12)
    for _ in range(40):
        ul, l = rng.choice([(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (5, 2)])
        u, nl = ul * l, 2 * ul
        drawn = [tuple((x + 1) % u for x in range(u))] + [
            random_block_perm(rng, u, ul) for _ in range(rng.randint(1, 3))]
        x0 = reorder.randrange(u)
        swap = from_cycles(u, (x0 + 1, (x0 + ul) % u + 1))
        for gens in (drawn, [swap] + drawn, reorder.sample(drawn, len(drawn))):
            delta1 = PermGroup(u, gens)
            sections = [tuple(g[z] % ul for z in range(ul)) for g in delta1.generators]
            image = PermGroup(ul, sections)
            delta0 = PermGroup(nl, [tuple((x + 1) % nl for x in range(nl))] + [
                tuple(2 * t[x // 2] if x % 2 == 0 else x for x in range(nl)) for t in sections
            ])
            G = perm_gen_wreath(delta1, delta0, l)
            # the kernel generators act on U (the even points) alone and fix
            # every coset of L
            kernel = [k for k in (tuple(g[2 * a] // 2 for a in range(u)) for g in G.generators
                                  if all(g[x] == x for x in range(1, 2 * u, 2)))
                      if all((k[a] - a) % ul == 0 for a in range(u))]
            assert all(k in delta1 for k in kernel)
            assert image.order() * PermGroup(u, kernel).order() == delta1.order()
            assert G.order() == delta0.order() * (delta1.order() // image.order()) ** 2
