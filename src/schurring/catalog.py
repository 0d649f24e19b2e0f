"""Catalogs of S-rings over Z_n for small n.

`enumerate_srings` generates the closure of cyclotomic and rank-2
primitives under tensor and generalized wreath products, bottom-up over
the divisor lattice.  The wreath step is a hash join on section keys:
each divisor's rings are indexed once by their quotient and restriction
sections, and only pairs whose sections agree are glued.  A product's
canonical key is computed before validation, so `validate` runs once per
distinct ring rather than once per construction.
`brute_force_enumerate` is the independent oracle:
it walks all negation-closed partitions of Z_n \\ {0} and filters by the
axiom validator.  `census` joins a catalog with the schurity decision
and checks the result against the arithmetic classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .arith import classify, divisors
from .construct import (
    MultiplierGroup,
    cyclotomic,
    gen_wreath_classes,
    rank2,
    tensor_classes,
    units,
    witness,
)
from .errors import CapExceeded, SchurRingError
from .sring import SRing, a_groups, canonical_classes, quotient, restrict, validate
from .schurity import SchurityVerdict, is_schurian

DEFAULT_CAP = 72
BRUTE_CAP = 13


@dataclass(frozen=True)
class Catalog:
    n: int
    rings: tuple[SRing, ...]
    count_exact: int


@dataclass(frozen=True)
class CensusEntry:
    ring: SRing
    verdict: SchurityVerdict


@dataclass(frozen=True)
class CensusReport:
    n: int
    total: int
    schurian_count: int
    first_nonschurian: Optional[SRing]
    entries: tuple[CensusEntry, ...]


def unit_subgroups(n: int) -> list[MultiplierGroup]:
    """All subgroups of the unit group of Z_n (closure-of-subsets fixpoint)."""
    us = units(n)
    groups = {MultiplierGroup.from_generators(n, []).elements}
    frontier = list(groups)
    while frontier:
        elems = frontier.pop()
        for u in us:
            bigger = MultiplierGroup.from_generators(n, list(elems) + [u]).elements
            if bigger not in groups:
                groups.add(bigger)
                frontier.append(bigger)
    return [MultiplierGroup(n, g, g) for g in sorted(groups, key=lambda g: (len(g), g))]


def _catalog_order(rings) -> list[SRing]:
    return sorted(rings, key=lambda A: (A.rank, A.classes))


def enumerate_srings(n: int, cap: int = DEFAULT_CAP) -> Catalog:
    """All S-rings over Z_n, as the closure of cyclotomic and rank-2
    primitives under tensor and generalized wreath products.

    Completeness at each order rests on the structure theory for
    circulant S-rings (Leung-Man: every S-ring over a cyclic group is
    rank 2, cyclotomic, a tensor product or a generalized wreath
    product); it is cross-checked against the brute-force oracle for
    n <= 12 in the test suite.

    The wreath products are a hash join: for each (n1, m, n2) the
    rings of order n2 are grouped by their restriction to the order-m
    subgroup, the rings of order n1 by their quotient by the order-n1/m
    subgroup, and only rings in groups with equal sections are glued.
    Every product's canonical key is computed first, and `validate` runs
    once per distinct ring.  Each section is computed (and validated) by
    the public `quotient`/`restrict` once per ring and subgroup order, and
    stored as the integer id of its key, so the memos, local to this call,
    hold no ring data of their own.
    """
    if n > cap:
        raise CapExceeded(f"n={n} exceeds cap {cap}")
    # canonical key -> id, for every ring built and every section seen; a
    # section's order is below the divisor being built, so it never hides a new ring
    ids: dict[tuple, int] = {}
    per_divisor: dict[int, list[SRing]] = {}
    a_groups_of: dict[int, list[list[int]]] = {}
    groups: dict[tuple, dict[int, list[SRing]]] = {}

    def by_section(section, order: int, sub: int) -> dict[int, list[SRing]]:
        """Rings of `order` having an A-group of order `sub`, grouped by
        the id of their section `section(A, sub)`."""
        memo = (section, order, sub)
        if memo not in groups:
            if order not in a_groups_of:
                a_groups_of[order] = [a_groups(A) for A in per_divisor[order]]
            by_id: dict[int, list[SRing]] = {}
            for A, ags in zip(per_divisor[order], a_groups_of[order]):
                if sub in ags:
                    sid = ids.setdefault(section(A, sub).key(), len(ids))
                    by_id.setdefault(sid, []).append(A)
            groups[memo] = by_id
        return groups[memo]

    for d in divisors(n):
        found: list[SRing] = []

        def add(A: SRing):
            if A.key() not in ids:
                ids[A.key()] = len(ids)
                found.append(A)

        def add_product(order: int, classes):
            canon = canonical_classes(classes)
            if (order, canon) not in ids:
                add(validate(order, canon))

        for K in unit_subgroups(d):
            add(cyclotomic(K))
        if d >= 2:
            add(rank2(d))
        # tensor products over coprime factorizations
        for d1 in divisors(d):
            d2 = d // d1
            if d1 <= 1 or d2 <= 1 or d1 > d2 or math.gcd(d1, d2) != 1:
                continue
            for A1 in per_divisor[d1]:
                for A2 in per_divisor[d2]:
                    add_product(*tensor_classes(A1, A2))
        # generalized wreath products glued over a common section
        for n1 in divisors(d):
            if n1 == 1 or n1 == d:
                continue
            for m in divisors(n1):
                if (d * m) % n1 != 0:
                    continue
                n2 = d * m // n1
                if n2 == d or n2 not in per_divisor or n2 % m != 0:
                    continue
                right = by_section(restrict, n2, m)
                for sid, left in by_section(quotient, n1, n1 // m).items():
                    for A1 in left:
                        for A2 in right.get(sid, ()):
                            add_product(*gen_wreath_classes(A1, A2, m))
        per_divisor[d] = found

    rings = _catalog_order(per_divisor[n])
    return Catalog(n, tuple(rings), len(rings))


def _inverse_closed_partitions(n: int):
    """Yield the negation-closed partitions of {1..n-1}, as class lists.

    Elements are assigned in increasing order; once x > n/2 both x and
    n - x are placed, so the negation-consistency of a class can be
    enforced as soon as it could fail.
    """
    if n == 1:
        yield []
        return
    class_of = {}

    def consistent(x, cls_members):
        # x joins the class of cls_members; negations of settled members
        # must all lie in one class, the one containing n - x
        nx = (n - x) % n
        if nx not in class_of:
            return True
        target = class_of[nx]
        for y in cls_members:
            ny = (n - y) % n
            if ny in class_of and class_of[ny] != target:
                return False
        return True

    classes: list[list[int]] = []

    def rec(x):
        if x == n:
            # final check: the negation of every class is a class
            reps = {}
            for i, c in enumerate(classes):
                reps[frozenset(c)] = i
            for c in classes:
                if frozenset((n - y) % n for y in c) not in reps:
                    return
            yield [list(c) for c in classes]
            return
        for i, c in enumerate(classes):
            if x > n - x and not consistent(x, c):
                continue
            c.append(x)
            class_of[x] = i
            yield from rec(x + 1)
            del class_of[x]
            c.pop()
        classes.append([x])
        class_of[x] = len(classes) - 1
        yield from rec(x + 1)
        del class_of[x]
        classes.pop()

    yield from rec(1)


def brute_force_enumerate(n: int, cap: int = BRUTE_CAP) -> Catalog:
    """Independent oracle: filter all candidate partitions by the validator."""
    if n > cap:
        raise CapExceeded(f"n={n} exceeds brute-force cap {cap}")
    rings: dict[tuple, SRing] = {}
    for part in _inverse_closed_partitions(n):
        try:
            A = validate(n, [[0]] + part)
        except SchurRingError:
            continue
        rings[A.key()] = A
    ordered = _catalog_order(rings.values())
    return Catalog(n, tuple(ordered), len(ordered))


def census(n: int, cap: int = DEFAULT_CAP, budget: Optional[int] = None) -> CensusReport:
    """Schurity verdict for every ring in the catalog of Z_n.

    Asserts the arithmetic classification: when n matches one of the five
    families every ring must be schurian; otherwise at least one
    non-schurian ring must appear (the explicit witness is injected if
    the closure somehow missed it).
    """
    cat = enumerate_srings(n, cap)
    rings = list(cat.rings)
    cls = classify(n)
    if cls.nonschur_split is not None:
        w = witness(*cls.nonschur_split)
        if w.key() not in {A.key() for A in rings}:
            rings.append(w)
    entries = []
    first_bad = None
    good = 0
    for A in rings:
        v = is_schurian(A, budget)
        entries.append(CensusEntry(A, v))
        if v.schurian:
            good += 1
        elif first_bad is None:
            first_bad = A
    if cls.is_schur and first_bad is not None:
        raise RuntimeError(
            f"n={n} is in the families but a non-schurian ring was found: "
            f"{first_bad!r}"
        )
    if not cls.is_schur and first_bad is None:
        raise RuntimeError(f"n={n} is outside the families but all rings are schurian")
    return CensusReport(n, len(rings), good, first_bad, tuple(entries))
