"""Catalogs of S-rings over Z_n for small n.

`enumerate_srings` generates the closure of cyclotomic and rank-2
primitives under tensor and generalized wreath products, bottom-up over
the divisor lattice.  The wreath step is a hash join on sections: each
divisor's rings are indexed once by their quotient and restriction
sections, and only pairs whose sections agree are glued.  Rings are
keyed by their class-label vector, whose length fixes the order, and
sections are looked up by it among the catalog rings of smaller order.
Every ring the closure builds is an S-ring by theorem, so none is
validated; a product is kept as a ring only when its labels, numbered by
first appearance, are a new key.  `brute_force_enumerate` is the
independent oracle: it walks all negation-closed partitions of
Z_n \\ {0} and filters them by `validate`.  `census` joins a catalog
with the schurity decision and checks the result against the arithmetic
classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .arith import classify, divisors
from .construct import MultiplierGroup, _gen_wreath_labels, _tensor_labels, cyclotomic, rank2, units
from .errors import CapExceeded, NotAnAGroup, SchurRingError
from .sring import SRing, _first_seen, quotient, restrict, validate
from .schurity import SchurityVerdict, is_schurian

DEFAULT_CAP = 72
BRUTE_CAP = 13


@dataclass(frozen=True)
class Catalog:
    n: int
    rings: tuple[SRing, ...]

    @property
    def count_exact(self) -> int:
        return len(self.rings)


@dataclass(frozen=True)
class CensusEntry:
    ring: SRing
    verdict: SchurityVerdict


@dataclass(frozen=True)
class CensusReport:
    n: int
    entries: tuple[CensusEntry, ...]

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def schurian_count(self) -> int:
        return sum(e.verdict.schurian for e in self.entries)

    @property
    def first_nonschurian(self) -> Optional[SRing]:
        return next((e.ring for e in self.entries if not e.verdict.schurian), None)


def unit_subgroups(n: int) -> list[MultiplierGroup]:
    """All subgroups of the unit group of Z_n, in one pass over the units:
    after u, every subgroup generated by units up to u is present, as the
    product set H<u> for H generated by smaller units (H itself if u in H)."""
    one = 1 % n
    groups = {(one,)}
    for u in units(n):
        cyc = [one]  # <u>
        while cyc[-1] * u % n != one:
            cyc.append(cyc[-1] * u % n)
        groups |= {tuple(sorted({h * c % n for h in H for c in cyc})) for H in groups if u not in H}
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
    Every product's labels are numbered by first appearance, and a ring
    is built, unvalidated, only for a new label vector: the products are
    S-rings by theorem.  Sections are S-rings of smaller order, so each
    one (`quotient`/`restrict`, once per ring and subgroup order) is
    looked up by its labels among the catalog rings; a miss raises
    KeyError.  The memos, local to this call, hold only ring ids.
    """
    if n > cap:
        raise CapExceeded(f"n={n} exceeds cap {cap}")
    # class labels -> id, for every catalog ring of the divisors built so far
    ids: dict[tuple[int, ...], int] = {}
    per_divisor: dict[int, list[SRing]] = {}
    groups: dict[tuple, dict[int, list[SRing]]] = {}

    def by_section(section, order: int, sub: int) -> dict[int, list[SRing]]:
        """Rings of `order` having an A-group of order `sub`, grouped by
        the id of their section `section(A, sub)`."""
        memo = (section, order, sub)
        if memo not in groups:
            by_id: dict[int, list[SRing]] = {}
            for A in per_divisor[order]:
                try:
                    labels = section(A, sub).class_of
                except NotAnAGroup:
                    continue
                by_id.setdefault(ids[labels], []).append(A)
            groups[memo] = by_id
        return groups[memo]

    for d in divisors(n):
        found: list[SRing] = []

        def add(order: int, raw):
            class_of = _first_seen(raw)
            if class_of not in ids:
                ids[class_of] = len(ids)
                found.append(SRing(order, class_of))

        for K in unit_subgroups(d):
            add(d, cyclotomic(K).class_of)
        if d >= 2:
            add(d, rank2(d).class_of)
        # tensor products over coprime factorizations
        for d1 in divisors(d):
            d2 = d // d1
            if d1 <= 1 or d2 <= 1 or d1 > d2 or math.gcd(d1, d2) != 1:
                continue
            for A1 in per_divisor[d1]:
                for A2 in per_divisor[d2]:
                    add(*_tensor_labels(A1, A2))
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
                            add(*_gen_wreath_labels(A1, A2, m))
        per_divisor[d] = found

    rings = _catalog_order(per_divisor[n])
    return Catalog(n, tuple(rings))


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


def brute_force_enumerate(n: int) -> Catalog:
    """Independent oracle: filter all candidate partitions by the validator."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > BRUTE_CAP:
        raise CapExceeded(f"n={n} exceeds brute-force cap {BRUTE_CAP}")
    rings: set[SRing] = set()
    for part in _inverse_closed_partitions(n):
        try:
            rings.add(validate(n, [[0]] + part))
        except SchurRingError:
            continue
    return Catalog(n, tuple(_catalog_order(rings)))


def census(n: int, cap: int = DEFAULT_CAP, budget: Optional[int] = None) -> CensusReport:
    """Schurity verdict for every ring in the catalog of Z_n.

    Asserts the arithmetic classification: when n matches one of the five
    families every ring of the catalog must be schurian; otherwise at
    least one of them must be non-schurian.  The catalog holds the
    explicit witness ring (the test suite checks this at n = 72), so a
    closure that missed it fails here rather than being patched over.
    """
    report = CensusReport(
        n, tuple(CensusEntry(A, is_schurian(A, budget)) for A in enumerate_srings(n, cap).rings)
    )
    cls = classify(n)
    first_bad = report.first_nonschurian
    if cls.is_schur and first_bad is not None:
        raise RuntimeError(
            f"n={n} is in the families but a non-schurian ring was found: "
            f"{first_bad!r}"
        )
    if not cls.is_schur and first_bad is None:
        raise RuntimeError(f"n={n} is outside the families but all rings are schurian")
    return report
