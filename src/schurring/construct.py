"""Builders: cyclotomic rings (and `is_cyclotomic`, which reads K* off the
class of 1), tensor products, generalized wreath products, and the
explicit non-schurian witness over Z_{n1*n2}.

Each builder's output is an S-ring by theorem: the orbit partition of a
group of multipliers (Schur), the rank-2 ring, the tensor product of
rings over coprime orders, and the generalized wreath product of rings
whose order-m sections agree (Evdokimov-Ponomarenko).  So no builder
calls `validate`; the public ones check their arguments, and the witness
glues by theorem, as the catalog join does.  Each one labels every point
of Z_n with its class, as an orbit label, a pair of factor classes, or a
class of one side of the wreath product, and `_from_labels` numbers the
labels into the canonical form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import divisors, omega_star
from .errors import IncompatibleSection, NotCoprime
from .perm import merge_orbits
from .sring import SRing, _from_labels, quotient, restrict


@dataclass(frozen=True)
class MultiplierGroup:
    """A subgroup of the units of Z_n, given by generators."""

    n: int
    generators: tuple[int, ...]
    elements: tuple[int, ...]

    @classmethod
    def from_generators(cls, n: int, generators) -> "MultiplierGroup":
        if n < 1:
            raise ValueError(f"the modulus must be positive, got {n}")
        gens = tuple(g % n for g in generators)
        for g in gens:
            if math.gcd(g, n) != 1:
                raise ValueError(f"{g} is not a unit mod {n}")
        # the elements are the orbit of 1 under the maps x -> g*x
        lab = merge_orbits(np.arange(n), _multipliers(n, gens))
        return cls(n, gens, tuple(np.flatnonzero(lab == lab[1 % n]).tolist()))


def _multipliers(n: int, ms) -> list[tuple[int, ...]]:
    """The maps x -> m*x on Z_n, as permutations."""
    return [tuple(m * x % n for x in range(n)) for m in ms]


def units(n: int) -> list[int]:
    if n == 1:
        return [0]
    return [m for m in range(1, n) if math.gcd(m, n) == 1]


def k_m(m: int) -> MultiplierGroup:
    """The multiplier group {1, -1} mod m (trivial for m <= 2)."""
    return MultiplierGroup.from_generators(m, [-1])


def cyclotomic(K: MultiplierGroup) -> SRing:
    """The S-ring whose classes are the orbits of K on Z_n."""
    n = K.n
    for g in K.generators:
        if math.gcd(g, n) != 1:
            raise ValueError(f"{g} is not a unit mod {n}")
    return _from_labels(n, merge_orbits(np.arange(n), _multipliers(n, K.generators)).tolist())


def is_cyclotomic(A: SRing) -> Optional[MultiplierGroup]:
    """The full multiplier group K* when the classes are its orbits, else None.

    If A = cyc(K*), the class X of 1 is its orbit K* * 1 = K*.  So A is
    cyclotomic iff every element of X is a unit that maps every class onto
    itself (then X = K*, as K* * 1 lies in X), and every class Y is the
    X-orbit of its least point: |X * min Y| = |Y|.  O(n) per element of X.
    """
    n = A.n
    c = np.array(A.class_of)
    X = np.flatnonzero(c == c[1 % n]).tolist()
    if (
        all(math.gcd(x, n) == 1 for x in X)
        and all(len({x * Y[0] % n for x in X}) == len(Y) for Y in A.classes)
        and all((c[np.arange(n) * x % n] == c).all() for x in X)
    ):
        return MultiplierGroup(n, tuple(X), tuple(X))
    return None


def rank2(n: int) -> SRing:
    """Classes {0} and Z_n \\ {0}."""
    if n < 2:
        raise ValueError("rank2 needs n >= 2")
    return _from_labels(n, [0] + [1] * (n - 1))


def _tensor_labels(A1: SRing, A2: SRing) -> tuple[int, list[int]]:
    """Order and point labels of the tensor product; orders coprime.  By
    CRT, z lies in the product of the classes of z mod n1 and z mod n2."""
    n1, n2, r2 = A1.n, A2.n, A2.rank
    # the tuple c repeated k times holds c[z mod len(c)] at every z
    return n1 * n2, [a * r2 + b for a, b in zip(A1.class_of * n2, A2.class_of * n1)]


def tensor(A1: SRing, A2: SRing) -> SRing:
    """Tensor product over Z_{n1*n2} via the CRT bijection (coprime orders)."""
    if math.gcd(A1.n, A2.n) != 1:
        raise NotCoprime(f"{A1.n} and {A2.n} are not coprime")
    return _from_labels(*_tensor_labels(A1, A2))


def gen_wreath(A1: SRing, A2: SRing, m: int = 1) -> SRing:
    """The generalized wreath product of A1 (over Z_{n1}) and A2 (over
    Z_{n2}) glued along their common section of order m, over Z_{n1*n2/m}.

    Classes inside the subgroup U of order n1 come from A1; classes
    outside U are full preimages of the A2-classes lying outside Z_m
    under the quotient-by-L map, where L has order n1/m.
    """
    n1, n2 = A1.n, A2.n
    if m < 1 or n1 % m or n2 % m:
        raise ValueError(f"m={m} must divide both {n1} and {n2}")
    left = quotient(A1, n1 // m)
    right = restrict(A2, m)
    if left != right:
        raise IncompatibleSection(left, right)
    return _from_labels(*_gen_wreath_labels(A1, A2, m))


def _gen_wreath_labels(A1: SRing, A2: SRing, m: int) -> tuple[int, list[int]]:
    """Order and point labels of the generalized wreath product; the caller
    has checked that the order-m sections of A1 and A2 agree."""
    n1, n2 = A1.n, A2.n
    n = n1 * n2 // m
    lift = n2 // m  # i_{n1, n}: multiply by n/n1
    # outside U, z is in the preimage of the A2-class of z mod n2, which
    # lies outside Z_m; U is the multiples of lift, labelled by A1
    r1 = A1.rank
    labels = [r1 + c for c in A2.class_of] * (n1 // m)
    labels[::lift] = A1.class_of
    return n, labels


@dataclass(frozen=True)
class WitnessConstruction:
    """The non-schurian witness ring plus its construction trace."""

    ring: SRing
    n1: int
    n2: int
    a: int
    b: int
    c: int
    d: int
    branch: str  # "generic" or "special"
    a12: SRing
    a34: SRing


def _split_factor(n: int, odd_only: bool = False) -> tuple[int, int]:
    """Smallest divisor a >= 3 of n with n/a >= 3 (both odd if odd_only).

    A pair exists for every n that `witness_detailed` splits.  An odd n
    with omega_star(n) >= 2 is p*m with p an odd prime and m >= 3 odd,
    which also serves odd_only.  An even n != 8 with omega_star(n) >= 2
    has at least three prime factors: it is p*m with p an odd prime and
    m >= 4, or 2^k = 4 * 2^(k-2) with k >= 4.
    """
    return next((a, n // a) for a in divisors(n)
                if a >= 3 and n // a >= 3 and (not odd_only or (a % 2 and n // a % 2)))


def witness_detailed(n1: int, n2: int) -> WitnessConstruction:
    """Explicit witness: a non-schurian S-ring over Z_{n1*n2}.

    Requires gcd(n1, n2) = 1 and omega_star >= 2 on both sides.  The
    generic branch factors n1 = a*b, n2 = c*d with a, b, c, d >= 3 and
    glues four cyclotomic rings; when one of the inputs is 8 the special
    branch with a = b = 4 and odd c, d is taken.

    Its proof makes every gluing's sections agree and fixes the
    intermediate identity (a12 over n1, or 8, is the wreath product of
    cyc(K_a) and cyc(K_b)), so the products are glued unchecked; the tests
    check both on every admissible pair with n1*n2 <= 4000.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"witness parts must be positive, got {n1} and {n2}")
    if math.gcd(n1, n2) != 1:
        raise ValueError(f"{n1} and {n2} must be coprime")
    if omega_star(n1) < 2 or omega_star(n2) < 2:
        raise ValueError("both parts must have omega_star >= 2")
    swapped = False
    if n2 == 8:
        n1, n2 = n2, n1
        swapped = True
    if n1 == 8:
        a = b = 4
        c, d = _split_factor(n2, odd_only=True)
        glue12, glue34, top = 2 * c, 2 * d, 8
        branch = "special"
    else:
        a, b = _split_factor(n1)
        c, d = _split_factor(n2)
        glue12, glue34, top = c, d, n1
        branch = "generic"

    # cyc(K_a x K_c): the orbits of a direct product are products of orbits
    A1 = _from_labels(*_tensor_labels(cyclotomic(k_m(a)), cyclotomic(k_m(c))))
    A2 = cyclotomic(k_m(b * c))
    A3 = cyclotomic(k_m(a * d))
    A4 = cyclotomic(k_m(b * d))
    a12 = _from_labels(*_gen_wreath_labels(A1, A2, glue12))
    a34 = _from_labels(*_gen_wreath_labels(A3, A4, glue34))
    ring = _from_labels(*_gen_wreath_labels(a12, a34, top))

    if swapped:
        n1, n2 = n2, n1
    return WitnessConstruction(ring, n1, n2, a, b, c, d, branch, a12, a34)


def witness(n1: int, n2: int) -> SRing:
    """The witness ring itself; see `witness_detailed` for the trace."""
    return witness_detailed(n1, n2).ring
