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
first appearance, are a new key.

The join glues each wreath product only at a reduced decomposition.
Let W(A) be the proper decompositions (u, l) of A, as
`wreath_decompositions` lists them; the unreduced join would build A
once for each of them, from A_U and A_{G/L} glued at m = u/l.  For a
fixed u the l's of W(A) are closed under lcm: L1 + L2 is an A-group
inside U, and a set that is a union of L1-cosets and of L2-cosets is a
union of (L1 + L2)-cosets.  For a fixed l the u's are closed under gcd:
a class outside U1 n U2 lies outside U1 or outside U2.  So taking the
least u for the current l, then the largest l for that u, ends at a
*reduced* pair, least in u and largest in l.  The join reaches its
triple (A_U, A_{G/L}, u/l): both sections are catalog rings, and neither
filter below drops them.  Each condition reads one factor only:

- u is least for l iff A1 = A_U is U'/L-wreath for no A1-group U' with
  l | u' < u (`_smaller_u`): the A-groups of A inside U are A1's, and the
  classes of A outside U are unions of L-cosets already.
- l is largest for u iff A2 = A_{G/L} is M/K-wreath, M of order m, for no
  A2-group K with 1 < k | m (`_larger_l`): the A-groups of A above L are
  the preimages of A2's, and a class of A outside U is the preimage of a
  class of A2 outside M.

`brute_force_enumerate` is the independent oracle: it walks all
negation-closed partitions of Z_n \\ {0} and filters them by `validate`.
`census` joins a catalog with the schurity decision and checks the
result against the arithmetic classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .arith import classify, divisors
from .construct import MultiplierGroup, _gen_wreath_labels, _tensor_labels, cyclotomic, rank2, units
from .errors import CapExceeded, SchurRingError
from .sring import SRing, _first_seen, _is_wreath, quotient, restrict, validate
from .schurity import DEFAULT_BUDGET, SchurityVerdict, check_search_degree, is_schurian

DEFAULT_CAP = 72
BRUTE_CAP = 13


@dataclass(frozen=True)
class Catalog:
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


def _smaller_u(A1: SRing, l: int) -> bool:
    """Whether A1 is U'/L-wreath, L of order l, for an A1-group U' with
    l | u' < n1: then a product glued with A1 as its U-side has a
    decomposition (u', l) with a smaller u."""
    return any(_is_wreath(A1, u, l) for u in A1.a_groups[:-1] if u % l == 0)


def _larger_l(A2: SRing, m: int) -> bool:
    """Whether A2 is M/K-wreath, M of order m, for an A2-group K with
    1 < k | m: then a product glued with A2 as its G/L-side has a
    decomposition with a larger l."""
    return any(_is_wreath(A2, m, k) for k in A2.a_groups[1:] if m % k == 0)


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
    KeyError.  The memos are local to this call: `ids` maps the labels of
    every catalog ring built so far to its id, and `groups` holds, per
    section map and subgroup order, the rings grouped by their section's
    id.

    Each product is glued only at a reduced decomposition (u, l): least
    in u for its l, largest in l for its u.  Every wreath product A has
    one, reached from any (u, l) in W(A) by taking the least u for l and
    then the largest l for that u, since W(A) is closed under gcd in u
    and lcm in l (the module docstring has the proof).  The two
    conditions read one factor each, so they are filters on the two
    indexes, computed once per ring and index after its section is
    looked up: a left ring A1 is left out of the index of its quotient
    by L when `_smaller_u(A1, l)`, a right ring A2 out of the index of
    its order-m restriction when `_larger_l(A2, m)`.  A ring can still
    be reached twice, e.g. when it is plain over two different U, or a
    wreath product that is also a tensor product or cyclotomic; the
    label-vector dedup keeps one copy.
    """
    if n > cap:
        raise CapExceeded(f"n={n} exceeds cap {cap}")
    # class labels -> id, for every catalog ring of the divisors built so far
    ids: dict[tuple[int, ...], int] = {}
    per_divisor: dict[int, list[SRing]] = {}
    groups: dict[tuple, dict[int, list[SRing]]] = {}

    def by_section(section, unreduced, order: int, sub: int) -> dict[int, list[SRing]]:
        """Rings of `order` having an A-group of order `sub`, grouped by
        the id of their section `section(A, sub)`, less those for which
        `unreduced(A, sub)` holds."""
        memo = (section, order, sub)
        if memo not in groups:
            by_id: dict[int, list[SRing]] = {}
            for A in per_divisor[order]:
                if sub not in A.a_groups:
                    continue
                sid = ids[section(A, sub).class_of]  # every section is looked up, filtered or not
                if not unreduced(A, sub):
                    by_id.setdefault(sid, []).append(A)
            groups[memo] = by_id
        return groups[memo]

    for d in divisors(n):
        found: list[SRing] = []

        def add(raw):
            class_of = _first_seen(raw)
            if class_of not in ids:
                ids[class_of] = len(ids)
                found.append(SRing(class_of))

        for K in unit_subgroups(d):
            add(cyclotomic(K).class_of)
        if d >= 2:
            add(rank2(d).class_of)
        # tensor products over coprime factorizations
        for d1 in divisors(d):
            d2 = d // d1
            if d1 <= 1 or d2 <= 1 or d1 > d2 or math.gcd(d1, d2) != 1:
                continue
            for A1 in per_divisor[d1]:
                for A2 in per_divisor[d2]:
                    add(_tensor_labels(A1, A2))
        # generalized wreath products glued over a common section U/L of
        # order m, U of order n1 < d and L of order l = n1/m > 1
        for n1 in divisors(d)[1:-1]:
            for m in divisors(n1)[:-1]:
                l = n1 // m
                right = by_section(restrict, _larger_l, d // l, m)
                for sid, left in by_section(quotient, _smaller_u, n1, l).items():
                    for A1 in left:
                        for A2 in right.get(sid, ()):
                            add(_gen_wreath_labels(A1, A2, m))
        per_divisor[d] = found

    return Catalog(tuple(_catalog_order(per_divisor[n])))


def _inverse_closed_partitions(n: int):
    """Yield the negation-closed partitions of {1..n-1}, as class lists.

    Points get their class in increasing order, classes numbered by their
    least point.  `neg` maps a class onto the class that negation maps it
    onto: once the later of x and -x is placed (n - x <= x), the pair of
    their classes is recorded both ways, and a pair that contradicts one
    already recorded ends the branch.  At a leaf negation maps every point
    of a class C into neg[C] and back, so -C = neg[C]: every partition
    yielded is negation-closed, and each one is yielded once.
    """
    label = [0] * n
    neg: dict[int, int] = {}

    def rec(x, k):
        if x == n:
            classes = [[] for _ in range(k)]
            for y in range(1, n):
                classes[label[y]].append(y)
            yield classes
            return
        for c in range(k + 1):
            label[x] = c
            d = label[n - x]  # the class of -x, read once -x is placed
            if n - x > x:
                yield from rec(x + 1, max(k, c + 1))
            elif neg.get(c, d) == d and neg.get(d, c) == c:
                new = [e for e in {c, d} if e not in neg]
                neg[c], neg[d] = d, c
                yield from rec(x + 1, max(k, c + 1))
                for e in new:
                    del neg[e]

    yield from rec(1, 0)


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
    return Catalog(tuple(_catalog_order(rings)))


def census(n: int, cap: int = DEFAULT_CAP, budget: int = DEFAULT_BUDGET) -> CensusReport:
    """Schurity verdict for every ring in the catalog of Z_n.

    Asserts the arithmetic classification: when n matches one of the five
    families every ring of the catalog must be schurian; otherwise at
    least one of them must be non-schurian.  The catalog holds the
    explicit witness ring (the test suite checks this at n = 72), so a
    closure that missed it fails here rather than being patched over.
    An n over the cap or over the search degree cap is refused with
    CapExceeded before the catalog is built.
    """
    if n > cap:
        raise CapExceeded(f"n={n} exceeds cap {cap}")
    check_search_degree(n)
    report = CensusReport(tuple(CensusEntry(A, is_schurian(A, budget)) for A in enumerate_srings(n, cap).rings))
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
