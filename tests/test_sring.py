"""The S-ring data model: validation, sections, radicals, structure flags."""

import dataclasses
import inspect
import math
import random
import tracemalloc

import pytest

from conftest import a_groups_by_scan, highest_classes, restrict_section, sections
from schurring.arith import Classification, classify, is_prime
from schurring.catalog import Catalog, CensusReport, _inverse_closed_partitions, enumerate_srings
from schurring.construct import (
    _gen_wreath_labels,
    _tensor_labels,
    cyclotomic,
    is_cyclotomic,
    k_m,
    rank2,
    tensor,
    units,
    witness,
    MultiplierGroup,
)
from schurring.errors import (
    NotAnAGroup,
    NotAPartition,
    NotClosedUnderProduct,
    NotComplementary,
    NotInverseClosed,
    SchurRingError,
    ZeroClassNotSingleton,
)
from schurring.perm import PermGroup
from schurring.sring import (
    SRing,
    _from_labels,
    group_ring,
    is_dense,
    is_primitive,
    is_quasidense,
    quotient,
    radical,
    radical_of_class,
    restrict,
    tensor_split,
    validate,
    wreath_decompositions,
)


def canonical_classes(classes):
    """The canonical class order by sorting, the reference for the labels
    numbered by first appearance: ascending elements, classes by minimum."""
    return tuple(sorted((tuple(sorted(c)) for c in classes), key=lambda c: c[0] if c else -1))


def _validate_by_pairs(n, classes):
    """The S-ring axioms checked pair by pair of classes, with the product
    counts of X * Y recounted for every pair: the reference for the
    class-function test in `validate`."""
    if n < 1:
        raise ValueError("n must be positive")
    canon = canonical_classes(classes)
    if sum(map(len, canon)) != n:
        raise NotAPartition("class sizes do not sum to n")
    seen = [False] * n
    for c in canon:
        if not c:
            raise NotAPartition("empty class")
        for x in c:
            if not 0 <= x < n or seen[x]:
                raise NotAPartition(f"element {x} repeated or out of range")
            seen[x] = True
    if canon[0] != (0,):
        raise ZeroClassNotSingleton("class of 0 must be exactly {0}")
    class_of = [0] * n
    for i, c in enumerate(canon):
        for x in c:
            class_of[x] = i
    for c in canon:
        neg = tuple(sorted((-x) % n for x in c))
        if canon[class_of[neg[0]]] != neg:
            raise NotInverseClosed(c)
    for X in canon:
        for Y in canon:
            counts = [0] * n
            for x in X:
                for y in Y:
                    counts[(x + y) % n] += 1
            for Z in canon:
                for z in Z[1:]:
                    if counts[z] != counts[Z[0]]:
                        raise NotClosedUnderProduct(X, Y, Z[0], z)


# recurring example: the wreath-style ring over Z_4 and its double cover
W4 = validate(4, [[0], [2], [1, 3]])
W8 = validate(8, [[0], [4], [2, 6], [1, 3, 5, 7]])


def test_validate_group_ring():
    A = validate(4, [[0], [1], [2], [3]])
    assert A.rank == 4
    assert A == group_ring(4)


def test_validate_wreath_style_ring():
    assert W4.rank == 3
    assert W4.classes == ((0,), (1, 3), (2,))
    assert W4.class_of == (0, 1, 2, 1)


def test_validate_canonicalizes_input_order():
    A = validate(4, [[3, 1], [2], [0]])
    assert A == W4
    # classes and their elements may each come as one-shot iterables
    assert validate(4, (reversed(c) for c in [[1, 3], [2], [0]])) == W4


def test_labels_numbered_by_first_appearance_are_canonical(catalogs):
    rng = random.Random(11)
    for n in range(1, 37):
        for A in catalogs[n].rings:
            names = rng.sample(range(4 * n), A.rank)  # an injective renaming
            raw = [names[c] for c in A.class_of]
            fresh = _from_labels(raw)
            assert "classes" not in vars(fresh), A.class_of  # listed only when read
            # equal and hashed alike before and after its classes are read
            assert fresh == A and hash(fresh) == hash(A), A.class_of
            blocks = {}
            for x, c in enumerate(raw):
                blocks.setdefault(c, []).append(x)
            reference = canonical_classes(blocks.values())
            assert fresh.classes == A.classes == reference, A.class_of
            assert fresh.rank == A.rank == len(reference), A.class_of
            assert fresh == A and hash(fresh) == hash(A), A.class_of
            shuffled = [rng.sample(c, len(c)) for c in A.classes]
            rng.shuffle(shuffled)
            revalidated = validate(n, shuffled)
            assert revalidated == A and hash(revalidated) == hash(A), A.class_of


def test_each_value_is_stored_once(catalogs):
    # a ring is its label vector, whose length is its order; a result keeps
    # no echo of its input order; a chain level's orbit is the base column
    # of its representatives
    assert [f.name for f in dataclasses.fields(SRing)] == ["class_of"]
    assert [f.name for f in dataclasses.fields(Catalog)] == ["rings"]
    assert [f.name for f in dataclasses.fields(CensusReport)] == ["entries"]
    assert [f.name for f in dataclasses.fields(Classification)] == ["families", "nonschur_split"]
    assert list(inspect.signature(_from_labels).parameters) == ["raw"]
    A = cyclotomic(k_m(5))
    assert type(_tensor_labels(A, rank2(3))) is list and type(_gen_wreath_labels(A, A, 5)) is list
    levels = PermGroup(6, [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)])._chain  # the dihedral group
    assert len(levels) == 2 and all("orbit" not in vars(lvl) for lvl in levels)
    for n in range(1, 37):
        for A in catalogs[n].rings:
            assert A.n == len(A.class_of) == n, A.class_of


def test_validate_rejects_bad_partitions():
    with pytest.raises(NotAPartition):
        validate(4, [[0], [1], [2]])
    with pytest.raises(NotAPartition):
        validate(4, [[0], [1, 1], [2], [3]])
    with pytest.raises(NotAPartition):
        validate(4, [[0], [1], [2], [3, 4]])
    with pytest.raises(NotAPartition):
        validate(10**12, [[0]])  # rejected before any allocation of size n
    with pytest.raises(ZeroClassNotSingleton):
        validate(4, [[0, 2], [1, 3]])


def test_validate_rejects_non_inverse_closed():
    with pytest.raises(NotInverseClosed) as e:
        validate(4, [[0], [1], [2, 3]])
    assert e.value.class_elements in ((1,), (2, 3))


def test_validate_rejects_product_violation():
    # {0},{1,2},{3,4} over Z_5: negation-closed? -{1,2}={3,4} ok as a class
    # but convolution {1,2}*{1,2} hits 2,3,4 with unequal counts
    with pytest.raises(NotClosedUnderProduct) as e:
        validate(5, [[0], [1, 2], [3, 4]])
    err = e.value
    assert err.z1 != err.z2


def _merged_and_split(A):
    """Partitions next to the ring A: two non-zero classes merged, or a
    pair {x, -x} split out of a larger class that holds both."""
    n, cs = A.n, A.classes
    for i in range(1, len(cs)):
        for j in range(i + 1, len(cs)):
            yield [c for k, c in enumerate(cs) if k not in (i, j)] + [cs[i] + cs[j]]
    for i, c in enumerate(cs[1:], 1):
        pairs = {tuple(sorted({x, (-x) % n})) for x in c if (-x) % n in c}
        for pm in sorted(pairs):
            if len(pm) < len(c):
                yield [d for k, d in enumerate(cs) if k != i] + [pm, [y for y in c if y not in pm]]


def _verdict(check, n, classes):
    try:
        check(n, classes)
    except SchurRingError as e:
        return e
    return None


def test_validate_matches_pairwise_reference():
    partitions = [(n, [[0]] + p) for n in range(1, 13) for p in _inverse_closed_partitions(n)]
    for A in (A for n in range(1, 37) for A in enumerate_srings(n).rings):
        partitions += [(A.n, p) for p in _merged_and_split(A)]
    kinds = set()
    for n, classes in partitions:
        got, want = _verdict(validate, n, classes), _verdict(_validate_by_pairs, n, classes)
        assert type(got) is type(want), (n, classes)
        kinds.add(type(got))
        if isinstance(got, NotInverseClosed):
            canon = canonical_classes(classes)
            assert got.class_elements in canon, (n, classes)
            assert tuple(sorted((-x) % n for x in got.class_elements)) not in canon, (n, classes)
        if isinstance(got, NotClosedUnderProduct):
            def count(z):
                return sum((z - x) % n in got.y_class for x in got.x_class)

            assert got.z1 != got.z2 and count(got.z1) != count(got.z2), (n, classes)
    assert kinds == {type(None), NotInverseClosed, NotClosedUnderProduct}


def test_validate_blocks_do_not_change_the_result(monkeypatch):
    # rows hold n cells: 8 cells give blocks of one point and its
    # representative, 256 cells blocks of 5-25 points from several classes,
    # whose distinct representatives are found again in each block
    partitions = [(A.n, [list(c) for c in A.classes]) for n in range(1, 25)
                  for A in enumerate_srings(n).rings]
    for n in range(1, 17):
        for A in enumerate_srings(n).rings:
            partitions += [(n, p) for p in _merged_and_split(A)]
    whole = [_verdict(validate, n, p) for n, p in partitions]
    for cells in (8, 256):
        monkeypatch.setattr("schurring.sring.VALIDATE_BLOCK_CELLS", cells)
        for (n, p), want in zip(partitions, whole):
            got = _verdict(validate, n, p)
            assert repr(got) == repr(want), (cells, n, p)  # the message names the payload


def test_validate_allocation_is_bounded():
    # one table of int64 keys over every point would be 4096 x 4096 cells,
    # 128 MiB; blocks of 128 points and their representative, with 16-bit
    # keys, keep each array near 1 MiB
    tracemalloc.start()
    try:
        assert validate(4096, [[0], list(range(1, 4096))]).rank == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    with pytest.raises(NotAPartition):
        validate(10**12, [[0]])


def test_a_groups_examples():
    assert group_ring(12).a_groups == (1, 2, 3, 4, 6, 12)
    assert rank2(6).a_groups == (1, 6)
    assert W4.a_groups == (1, 2, 4)


def test_a_groups_match_the_scan(catalogs):
    # the lattice from the class sizes against one label scan per divisor,
    # on fresh copies so that no other test has listed their classes yet
    rings = [A for n in range(1, 73) for A in catalogs[n].rings] + _witness_rings()
    assert len(rings) == 8914 + 14
    for A in rings:
        B = SRing(A.class_of)
        assert list(B.a_groups) == a_groups_by_scan(A), A.class_of
        assert "classes" not in B.__dict__


def test_restrict_examples():
    assert restrict(group_ring(12), 4) == group_ring(4)
    assert restrict(W8, 4) == W4
    assert restrict(W8, 8) == W8
    with pytest.raises(NotAnAGroup):
        restrict(rank2(6), 2)
    for d in (0, 3, 16):  # no order of a subgroup of Z_8
        with pytest.raises(NotAnAGroup):
            restrict(W8, d)
        with pytest.raises(NotAnAGroup):
            quotient(W8, d)


def test_quotient_examples():
    assert quotient(group_ring(12), 3) == group_ring(4)
    assert quotient(W8, 2) == W4
    assert quotient(W8, 1) == W8
    with pytest.raises(NotAnAGroup):
        quotient(rank2(6), 3)


def test_section_classes_match_the_validated_sections():
    # restrict and quotient build their sections unvalidated: each must be
    # the S-ring that validating its own classes gives, class_of included
    for n in range(1, 25):
        for A in enumerate_srings(n).rings:
            for d in A.a_groups:
                for section in (restrict, quotient):
                    B = section(A, d)
                    assert validate(B.n, B.classes) == B, (A.classes, d, section)


def test_restrict_section_examples():
    assert restrict_section(group_ring(12), 6, 2) == group_ring(3)
    assert restrict_section(W8, 4, 2) == group_ring(2)
    assert restrict_section(W8, 8, 1) == W8


def test_restrict_quotient_functoriality():
    rings = [group_ring(12), W8, cyclotomic(k_m(12)), tensor(W4, group_ring(3))]
    for A in rings:
        ags = A.a_groups
        for d2 in ags:
            B = restrict(A, d2)
            for d1 in B.a_groups:
                if d1 in ags:
                    assert restrict(B, d1) == restrict(A, d1)
        for l1 in ags:
            B = quotient(A, l1)
            for l2 in ags:
                if l2 % l1 == 0 and (l2 // l1) in B.a_groups:
                    assert (
                        quotient(B, l2 // l1) == quotient(A, l2)
                    )


def test_sections_shape():
    ss = sections(W4)
    assert (4, 1) in ss and (2, 2) in ss
    assert ss == [(u, l) for u in (1, 2, 4) for l in (1, 2, 4) if u % l == 0]


def test_radical_of_class_examples():
    assert radical_of_class(W4, 0) == 1  # the class {0}
    assert radical_of_class(W4, 1) == 2  # {1,3} shifted by 2 is itself
    assert radical_of_class(rank2(7), 1) == 1


def test_radical_of_class_is_the_exact_fixed_set(catalogs):
    rings = [A for n in range(1, 37) for A in catalogs[n].rings]
    for A in [W4, W8, rank2(6), cyclotomic(k_m(12))] + rings:
        n = A.n
        for i, X in enumerate(A.classes):
            s = set(X)
            fixers = [g for g in range(n) if {(x + g) % n for x in X} == s]
            assert radical_of_class(A, i) == len(fixers)
            assert n % len(fixers) == 0


def test_highest_classes_examples():
    assert [group_ring(6).classes[i] for i in highest_classes(group_ring(6))] == [
        (1,),
        (5,),
    ]
    assert highest_classes(W4) == [1]
    assert len(highest_classes(rank2(9))) == 1


def test_radical_examples():
    assert radical(group_ring(8)) == 1
    assert radical(W4) == 2
    assert radical(rank2(6)) == 1


def _witness_rings():
    """The witness rings of the 14 non-Schur orders 72 <= n <= 300."""
    return [witness(*classify(n).nonschur_split) for n in range(72, 301)
            if classify(n).nonschur_split]


def test_highest_classes_share_one_radical():
    witnesses = _witness_rings()
    assert len(witnesses) == 14
    for A in [A for n in range(1, 37) for A in enumerate_srings(n).rings] + witnesses:
        assert highest_classes(A)[0] == A.class_of[1 % A.n], A.class_of
        assert len({radical_of_class(A, i) for i in highest_classes(A)}) == 1, A.class_of


def test_is_primitive_examples():
    assert is_primitive(rank2(6))
    assert not is_primitive(group_ring(4))
    for A in (group_ring(5), rank2(7), cyclotomic(k_m(5))):
        assert is_primitive(A)
    assert not is_primitive(group_ring(1))


def test_is_quasidense_examples():
    assert not is_quasidense(rank2(6))
    assert is_quasidense(group_ring(12))
    assert is_quasidense(rank2(5))
    assert is_quasidense(W8)


def _quasidense_by_section_rings(A):
    """Quasidensity from its definition: build every section ring and ask
    whether it is primitive.  The reference for the A-group lattice rule."""
    for u, l in sections(A):
        if u > l and is_primitive(restrict_section(A, u, l)):
            if not is_prime(u // l):
                return False
    return True


def test_is_quasidense_matches_section_rings():
    rings = [A for n in range(1, 31) for A in enumerate_srings(n).rings]
    for A in rings + [witness(8, 9), witness(8, 15)]:
        assert is_quasidense(A) == _quasidense_by_section_rings(A), A.class_of
    # the A_S-groups of S = U/L are H/L for the A-groups L <= H <= U
    for A in (A for A in rings if A.n <= 24):
        ags = A.a_groups
        for u, l in sections(A):
            interval = [h // l for h in ags if h % l == 0 and u % h == 0]
            assert list(restrict_section(A, u, l).a_groups) == interval, (A.class_of, u, l)


def test_is_dense_examples():
    assert is_dense(group_ring(12))
    assert not is_dense(rank2(6))
    for K in (k_m(12), MultiplierGroup.from_generators(15, [2])):
        assert is_dense(cyclotomic(K))


def test_wreath_decompositions_examples():
    assert wreath_decompositions(W4) == [(2, 2)]
    assert wreath_decompositions(group_ring(12)) == []
    assert (4, 4) in wreath_decompositions(W8)


def _wreath_decompositions_by_radicals(A):
    """Reference: (u, l) such that the radical of every class outside U
    contains L, from `radical_of_class`."""
    ags = A.a_groups
    rad = [radical_of_class(A, i) for i in range(A.rank)]
    out = []
    for u in ags[:-1]:
        outside = [i for i, c in enumerate(A.classes) if any(x % (A.n // u) for x in c)]
        out += [(u, l) for l in ags[1:] if u % l == 0 and all(rad[i] % l == 0 for i in outside)]
    return out


def test_wreath_decompositions_match_the_radicals(catalogs):
    # the O(n) coset test against the radical of every class outside U
    rings = [A for n in range(1, 49) for A in catalogs[n].rings]
    assert len(rings) == 3061
    for A in rings:
        assert wreath_decompositions(A) == _wreath_decompositions_by_radicals(A), A.class_of


def _multiplier_stabilizer(A):
    """Units m of Z_n with m*X = X for every class X, by a scan of every
    unit over every point."""
    n, c = A.n, A.class_of
    return [
        m
        for m in range(n)
        if math.gcd(m, n) == 1 and all(c[m * x % n] == c[x] for x in range(n))
    ]


def _cyclotomic_by_stabilizer(A):
    """Cyclotomy from its definition, the reference for `is_cyclotomic`:
    the orbit ring of the full multiplier stabilizer K*, if it is A."""
    kstar = tuple(_multiplier_stabilizer(A))
    K = MultiplierGroup(A.n, kstar, kstar)
    return K if cyclotomic(K) == A else None


def test_multiplier_stabilizer_and_is_cyclotomic():
    assert is_cyclotomic(group_ring(1)).elements == (0,)
    assert is_cyclotomic(group_ring(6)).elements == (1,)
    K = is_cyclotomic(W4)
    assert K is not None and set(K.elements) == {1, 3}
    assert is_cyclotomic(rank2(6)) is None
    # rank2 over a prime is the full-unit-group cyclotomic ring
    K5 = is_cyclotomic(rank2(5))
    assert K5 is not None and set(K5.elements) == set(units(5))


def test_is_cyclotomic_matches_the_multiplier_stabilizer(catalogs):
    rings = [A for n in range(1, 49) for A in catalogs[n].rings]
    assert len(rings) == 3061
    cyclotomic_count = 0
    for A in rings + _witness_rings():
        K = is_cyclotomic(A)
        assert K == _cyclotomic_by_stabilizer(A), A.class_of
        cyclotomic_count += K is not None
    assert cyclotomic_count == 366  # all catalog rings; no witness is cyclotomic


def test_tensor_split_examples():
    assert tensor_split(group_ring(6), 2)
    # K_12-orbits are not products of K_3- and K_4-orbits: {1,11} vs {1,5,7,11}
    assert not tensor_split(cyclotomic(k_m(12)), 3)
    # the order-2 subgroup of this wreath-style ring has no A-complement
    W6 = validate(6, [[0], [3], [1, 4], [2, 5]])
    with pytest.raises(NotComplementary):
        tensor_split(W6, 2)
    T = tensor(W4, group_ring(3))
    assert tensor_split(T, 4) and tensor_split(T, 3)
    with pytest.raises(NotComplementary):
        tensor_split(group_ring(4), 2)
    with pytest.raises(NotComplementary):
        tensor_split(rank2(6), 2)
    for d in (0, -2, 4):
        with pytest.raises(NotComplementary, match=f"{d} does not divide 6"):
            tensor_split(group_ring(6), d)


def test_negation_is_an_involution_on_classes():
    for A in (W4, W8, group_ring(7), cyclotomic(k_m(9)), rank2(6)):
        n = A.n
        perm = []
        for c in A.classes:
            j = A.class_of[(-c[0]) % n]
            assert tuple(sorted((-x) % n for x in c)) == A.classes[j]
            perm.append(j)
        assert sorted(perm) == list(range(A.rank))
        assert all(perm[perm[i]] == i for i in range(A.rank))


def test_revalidation_is_identity():
    for A in (W4, W8, group_ring(9), cyclotomic(k_m(15))):
        assert validate(A.n, [list(c) for c in A.classes]) == A


def test_any_ring_over_prime_order_is_primitive_quasidense():
    for p in (3, 5, 7, 11):
        for K in (k_m(p), MultiplierGroup.from_generators(p, units(p)[:1])):
            A = cyclotomic(K)
            assert is_primitive(A) or A.rank == p  # group ring included below
            assert is_quasidense(A)
        assert is_primitive(rank2(p))
