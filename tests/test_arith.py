"""Factorization, the Omega functions, and the order classification."""

import math
import random

import pytest

from conftest import project, subgroup_elements
from schurring.arith import (
    PK,
    PQK,
    PQR,
    TWO_PQK,
    TWO_PQR,
    Classification,
    Factorization,
    classify,
    divisors,
    equivalence_violations,
    factorize,
    is_prime,
    omega,
    omega_star,
)


def test_factorize_basic():
    assert factorize(1).factors == ()
    assert factorize(72).factors == ((2, 3), (3, 2))
    assert factorize(120).factors == ((2, 3), (3, 1), (5, 1))
    assert factorize(97).factors == ((97, 1),)


def test_factorize_random_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**12)
        f = factorize(n)
        prod = 1
        for p, k in f.factors:
            assert is_prime(p)
            assert k >= 1
            prod *= p**k
        assert prod == n
        assert list(f.factors) == sorted(f.factors)


def test_factorization_consistency_guard():
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1),))


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_omega():
    assert omega(1) == 0
    assert omega(12) == 3
    assert omega(30) == 3
    assert omega(2**10) == 10


def test_omega_star():
    assert omega_star(8) == 2
    assert omega_star(9) == 2
    assert omega_star(6) == 1
    assert omega_star(1) == 0
    assert omega_star(2) == 0


def test_omega_star_shape_characterization():
    # omega_star(n) <= 1 iff n is odd with omega <= 1, or even with
    # omega(n/2) <= 1
    for n in range(1, 2000):
        expected = omega(n) <= 1 if n % 2 else omega(n // 2) <= 1
        assert (omega_star(n) <= 1) == expected


def test_classify_families_examples():
    assert classify(60).families == {TWO_PQR}
    assert classify(72).families == frozenset()
    assert classify(7).families == {PK, PQK}
    assert classify(1).families == {PK}
    assert classify(30).families == {PQR, TWO_PQK}
    assert classify(36).families == {TWO_PQK}
    assert set(classify(2310).families) == set()


def test_classify_families_two_allowed_as_any_prime():
    # 24 = 3 * 2^3 matches pq^k with q = 2; 24 = 2 * (2 * ?) fails 2pqr
    assert PQK in classify(24).families
    # 12 = 2 * (2 * 3) = 2pq^k with p = 2? no: n/2 = 6 = 2 * 3 = pq^1
    assert TWO_PQK in classify(12).families


def test_find_nonschur_split_examples():
    assert classify(72).nonschur_split == (8, 9)
    assert classify(60).nonschur_split is None
    assert classify(144).nonschur_split == (9, 16)
    assert classify(210).nonschur_split is None
    assert classify(200).nonschur_split == (8, 25)


def test_find_nonschur_split_properties():
    for n in range(1, 3000):
        split = classify(n).nonschur_split
        if split is None:
            continue
        n1, n2 = split
        assert n1 * n2 == n and n1 < n2
        assert math.gcd(n1, n2) == 1
        assert omega_star(n1) >= 2 and omega_star(n2) >= 2
        # minimality of n1 over all qualifying coprime splits
        for d in divisors(n):
            e = n // d
            if d < n1 and d < e and math.gcd(d, e) == 1:
                assert not (omega_star(d) >= 2 and omega_star(e) >= 2)


def test_classify_examples():
    c = classify(71)
    assert c.is_schur and c.families == {PK, PQK}
    c = classify(72)
    assert not c.is_schur and c.nonschur_split == (8, 9)
    c = classify(210)
    assert c.is_schur and c.families == {TWO_PQR}


def test_classify_mutual_exclusion_range():
    for n in range(1, 1000):
        c = classify(n)
        assert isinstance(c, Classification)
        assert bool(c.families) != (c.nonschur_split is not None)
        assert c.families <= {PK, PQK, TWO_PQK, PQR, TWO_PQR}


def test_equivalence_violations_small():
    assert equivalence_violations(5000) == []


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(72) == [1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72]


def test_divisors_match_their_definition():
    for n in range(1, 501):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_divisors_returns_a_new_list():
    # the divisors of each order are cached; a caller's list is its own
    ds = divisors(36)
    ds[0] = 0
    del ds[2:]
    ds.append(5)
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert divisors(36) is not divisors(36)


def test_subgroup_elements_examples():
    assert subgroup_elements(12, 3) == [0, 4, 8]
    assert subgroup_elements(12, 12) == list(range(12))
    assert subgroup_elements(72, 8) == list(range(0, 72, 9))
    with pytest.raises(ValueError):
        subgroup_elements(12, 5)


def test_subgroup_elements_closed_under_addition():
    for n in (12, 30, 72):
        for d in divisors(n):
            sub = subgroup_elements(n, d)
            assert len(sub) == d
            s = set(sub)
            assert all((x + y) % n in s for x in sub for y in sub)


def test_project_examples():
    assert project(12, 4, 7) == 3
    assert project(72, 9, 70) == 7
    assert project(6, 6, 5) == 5
    with pytest.raises(ValueError):
        project(12, 5, 1)


def test_project_is_a_homomorphism():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.choice([6, 12, 30, 72, 360])
        m = rng.choice([d for d in divisors(n)])
        x, y = rng.randrange(n), rng.randrange(n)
        assert project(n, m, (x + y) % n) == (project(n, m, x) + project(n, m, y)) % m
