"""Arithmetic over Z_n: factorization, the divisor lattice, the Omega
functions, and the two independent formulations of the classification of
cyclic orders whose S-rings are all realizable from permutation groups.

The classification has two faces.  `_families_of` matches a factorization
against five literal shapes (p^k, pq^k, 2pq^k, pqr, 2pqr with distinct
primes, 2 allowed among them).  `_split_of` searches it for a coprime
n = n1 * n2 with omega_star(ni) >= 2 on both sides.  An order satisfies
exactly one of the two; `classify`, the one entry, computes both and checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

#: Family tags, in the order the shapes are usually listed.
PK = "p^k"
PQK = "pq^k"
TWO_PQK = "2pq^k"
PQR = "pqr"
TWO_PQR = "2pqr"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of n, primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        for p, k in self.factors:
            prod *= p**k
        if prod != self.n:
            raise ValueError(f"factors do not multiply to {self.n}")


@dataclass(frozen=True)
class Classification:
    """Classification verdict for an order n.

    Exactly one of `families` (nonempty) and `nonschur_split` is present.
    """

    families: frozenset[str]
    nonschur_split: Optional[tuple[int, int]]

    @property
    def is_schur(self) -> bool:
        return bool(self.families)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factorize(n: int) -> Factorization:
    """Exact prime factorization; n = 1 yields an empty factor list."""
    if not 1 <= n <= 2**63 - 1:
        raise ValueError(f"n out of range: {n}")
    m = n
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    p = 7
    # trial division with a 2-3-5 wheel up to 10^5, rho beyond
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= m and p < 100000:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += wheel[i]
        i = (i + 1) % 8
    stack = [m] if m > 1 else []
    while stack:
        q = stack.pop()
        if is_prime(q):
            factors[q] = factors.get(q, 0) + 1
        else:
            d = _pollard_rho(q)
            stack.append(d)
            stack.append(q // d)
    return Factorization(n, tuple(sorted(factors.items())))


def omega(n: int) -> int:
    """Total number of prime factors of n, counted with multiplicity."""
    return sum(k for _, k in factorize(n).factors)


def omega_star(n: int) -> int:
    """omega(n) for odd n, omega(n/2) for even n."""
    return omega(n // 2) if n % 2 == 0 else omega(n)


def _halved(factors) -> tuple[tuple[int, int], ...]:
    """Factor list of n/2 given the factor list of an even n."""
    return tuple(
        (p, k - 1 if p == 2 else k) for p, k in factors if (p, k) != (2, 1)
    )


def _is_pqk(factors) -> bool:
    """Whether the factor list is that of p * q^k, p != q primes, k >= 0.

    Equivalently: at most two distinct primes, one of them simple.
    """
    return len(factors) <= 2 and any(k == 1 for _, k in factors)


def _is_pqr(factors) -> bool:
    """Whether the factor list is that of p * q * r, three distinct primes."""
    return len(factors) == 3 and all(k == 1 for _, k in factors)


def _families_of(f: Factorization) -> frozenset[str]:
    tags = set()
    if len(f.factors) <= 1:
        tags.add(PK)
    if _is_pqk(f.factors):
        tags.add(PQK)
    if _is_pqr(f.factors):
        tags.add(PQR)
    if f.n % 2 == 0:
        half = _halved(f.factors)
        if _is_pqk(half):
            tags.add(TWO_PQK)
        if _is_pqr(half):
            tags.add(TWO_PQR)
    return frozenset(tags)


def _split_of(f: Factorization) -> Optional[tuple[int, int]]:
    """The coprime split n1 < n2 with omega_star >= 2 on both sides and least n1, or None."""
    pps = [(p, p**k, k) for p, k in f.factors]
    s = len(pps)
    if s < 2:
        return None
    best = None
    for mask in range(1, (1 << s) - 1):
        n1 = n2 = 1
        w1 = w2 = 0
        for i, (p, pk, k) in enumerate(pps):
            if mask & (1 << i):
                n1 *= pk
                w1 += k - (1 if p == 2 else 0)
            else:
                n2 *= pk
                w2 += k - (1 if p == 2 else 0)
        if w1 >= 2 and w2 >= 2:
            lo, hi = (n1, n2) if n1 < n2 else (n2, n1)
            if best is None or lo < best[0]:
                best = (lo, hi)
    return best


def classify(n: int) -> Classification:
    """Full verdict for n, cross-validating the two formulations."""
    f = factorize(n)
    families = _families_of(f)
    split = _split_of(f)
    if bool(families) == (split is not None):
        raise RuntimeError(
            f"classification inconsistency at n={n}: "
            f"families={set(families)}, split={split}"
        )
    return Classification(families, split)


def equivalence_violations(limit: int) -> list[int]:
    """All n <= limit where the family and split formulations disagree.

    Uses a smallest-prime-factor sieve so the full desk-scale range
    (limit ~ 2e5) runs in seconds; the per-n predicates are the same
    `_families_of` / `_split_of` used by the public API.
    """
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    bad = []
    for n in range(1, limit + 1):
        m = n
        factors = []
        while m > 1:
            p = spf[m]
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            factors.append((p, k))
        f = Factorization(n, tuple(factors))
        if bool(_families_of(f)) == (_split_of(f) is not None):
            bad.append(n)
    return bad


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n, a new list on every call."""
    return list(_divisors(n))


@functools.lru_cache(maxsize=4096)
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n, factorizing n once per order the cache holds."""
    ds = [1]
    for p, k in factorize(n).factors:
        ds = [d * p**j for d in ds for j in range(k + 1)]
    return tuple(sorted(ds))

