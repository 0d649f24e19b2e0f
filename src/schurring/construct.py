"""Builders: cyclotomic rings, tensor products, generalized wreath
products, and the explicit non-schurian witness over Z_{n1*n2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .arith import divisors, omega_star
from .errors import IncompatibleSection, NotCoprime
from .perm import orbits_of_perms
from .sring import SRing, quotient, restrict, validate


@dataclass(frozen=True)
class MultiplierGroup:
    """A subgroup of the units of Z_n, given by generators."""

    n: int
    generators: tuple[int, ...]
    elements: tuple[int, ...]

    @classmethod
    def from_generators(cls, n: int, generators) -> "MultiplierGroup":
        gens = tuple(g % n for g in generators) if n > 1 else (1,)
        for g in gens:
            if math.gcd(g, n) != 1:
                raise ValueError(f"{g} is not a unit mod {n}")
        elems = {1 % n if n == 1 else 1}
        frontier = list(elems)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % n
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return cls(n, gens, tuple(sorted(elems)))

    @property
    def order(self) -> int:
        return len(self.elements)


def units(n: int) -> list[int]:
    if n == 1:
        return [0]
    return [m for m in range(1, n) if math.gcd(m, n) == 1]


def k_m(m: int) -> MultiplierGroup:
    """The order-2 multiplier group {1, -1} mod m (trivial for m <= 2)."""
    if m <= 2:
        return MultiplierGroup.from_generators(m, [1])
    return MultiplierGroup.from_generators(m, [m - 1])


def cyclotomic(K: MultiplierGroup) -> SRing:
    """The S-ring whose classes are the orbits of K on Z_n."""
    n = K.n
    multipliers = [tuple(m * x % n for x in range(n)) for m in K.elements]
    return validate(n, orbits_of_perms(n, multipliers))


def rank2(n: int) -> SRing:
    """Classes {0} and Z_n \\ {0}."""
    if n < 2:
        raise ValueError("rank2 needs n >= 2")
    return validate(n, [[0], list(range(1, n))])


def _crt_coeffs(n1: int, n2: int) -> tuple[int, int]:
    # e1 = 1 mod n1, 0 mod n2; e2 the other way round
    e1 = n2 * pow(n2, -1, n1) if n1 > 1 else 0
    e2 = n1 * pow(n1, -1, n2) if n2 > 1 else 0
    return e1, e2


def tensor_classes(A1: SRing, A2: SRing) -> tuple[int, list[list[int]]]:
    """Order and (unvalidated) classes of the tensor product; orders coprime."""
    n1, n2 = A1.n, A2.n
    n = n1 * n2
    e1, e2 = _crt_coeffs(n1, n2)
    classes = [
        [(x * e1 + y * e2) % n for x in X for y in Y]
        for X in A1.classes
        for Y in A2.classes
    ]
    return n, classes


def tensor(A1: SRing, A2: SRing) -> SRing:
    """Tensor product over Z_{n1*n2} via the CRT bijection (coprime orders)."""
    if math.gcd(A1.n, A2.n) != 1:
        raise NotCoprime(f"{A1.n} and {A2.n} are not coprime")
    return validate(*tensor_classes(A1, A2))


def gen_wreath(A1: SRing, A2: SRing, m: int = 1) -> SRing:
    """The generalized wreath product of A1 (over Z_{n1}) and A2 (over
    Z_{n2}) glued along their common section of order m, over Z_{n1*n2/m}.

    Classes inside the subgroup U of order n1 come from A1; classes
    outside U are full preimages of the A2-classes lying outside Z_m
    under the quotient-by-L map, where L has order n1/m.
    """
    n1, n2 = A1.n, A2.n
    if n1 % m or n2 % m:
        raise ValueError(f"m={m} must divide both {n1} and {n2}")
    left = quotient(A1, n1 // m)
    right = restrict(A2, m)
    if left.key() != right.key():
        raise IncompatibleSection(left, right)
    return validate(*gen_wreath_classes(A1, A2, m))


def gen_wreath_classes(A1: SRing, A2: SRing, m: int) -> tuple[int, list[list[int]]]:
    """Order and (unvalidated) classes of the generalized wreath product;
    the caller has checked that the order-m sections of A1 and A2 agree."""
    n1, n2 = A1.n, A2.n
    n = n1 * n2 // m
    lift = n2 // m  # i_{n1, n}: multiply by n/n1
    classes = [[x * lift % n for x in X] for X in A1.classes]
    step2 = n2 // m  # subgroup of order m in Z_{n2}
    cosets = n1 // m  # index of the kernel of the mod-n2 projection
    for Y in A2.classes:
        if all(y % step2 == 0 for y in Y):
            continue  # inside Z_m: covered by A1's side
        classes.append([y + j * n2 for y in Y for j in range(cosets)])
    return n, classes


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


def _split_factor(n: int, odd_only: bool = False) -> Optional[tuple[int, int]]:
    """Smallest divisor a >= 3 of n with n/a >= 3 (both odd if odd_only)."""
    for a in divisors(n):
        b = n // a
        if a >= 3 and b >= 3 and (not odd_only or (a % 2 and b % 2)):
            return a, b
    return None


def witness_detailed(n1: int, n2: int) -> WitnessConstruction:
    """Explicit witness: a non-schurian S-ring over Z_{n1*n2}.

    Requires gcd(n1, n2) = 1 and omega_star >= 2 on both sides.  The
    generic branch factors n1 = a*b, n2 = c*d with a, b, c, d >= 3 and
    glues four cyclotomic rings; when one of the inputs is 8 the special
    branch with a = b = 4 and odd c, d is taken.
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
        cd = _split_factor(n2, odd_only=True)
        if cd is None:
            raise ValueError(f"cannot factor {n2} = c*d with odd c, d >= 3")
        c, d = cd
        glue12, glue34, top = 2 * c, 2 * d, 8
        branch = "special"
    else:
        ab = _split_factor(n1)
        cd = _split_factor(n2)
        if ab is None or cd is None:
            raise ValueError(f"cannot factor {n1} or {n2} into parts >= 3")
        a, b = ab
        c, d = cd
        glue12, glue34, top = c, d, n1
        branch = "generic"

    A1 = _cyc_product(a, c)
    A2 = cyclotomic(k_m(b * c))
    A3 = cyclotomic(k_m(a * d))
    A4 = cyclotomic(k_m(b * d))
    a12 = gen_wreath(A1, A2, glue12)
    a34 = gen_wreath(A3, A4, glue34)
    ring = gen_wreath(a12, a34, top)

    # the intermediate identity from the construction's correctness proof
    if branch == "generic":
        expected = gen_wreath(cyclotomic(k_m(a)), cyclotomic(k_m(b)), 1)
    else:
        expected = gen_wreath(cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2)
    got = quotient(a12, a12.n // n1)
    if got.key() != expected.key():
        raise AssertionError("witness intermediate identity failed")

    if swapped:
        n1, n2 = n2, n1
    return WitnessConstruction(ring, n1, n2, a, b, c, d, branch, a12, a34)


def _cyc_product(a: int, c: int) -> SRing:
    """cyc(K_a x K_c, Z_{a*c}) realized inside units(a*c) via CRT."""
    n = a * c
    e1, e2 = _crt_coeffs(a, c)
    s_a = a - 1 if a > 2 else 1
    s_c = c - 1 if c > 2 else 1
    gens = [(s_a * e1 + e2) % n, (e1 + s_c * e2) % n]
    return cyclotomic(MultiplierGroup.from_generators(n, gens))


def witness(n1: int, n2: int) -> SRing:
    """The witness ring itself; see `witness_detailed` for the trace."""
    return witness_detailed(n1, n2).ring
