"""The S-ring data model over Z_n.

An S-ring is stored as a validated partition of {0, ..., n-1} into basic
sets ("classes"): class 0 is exactly {0}, the partition is closed under
negation, and for every pair of classes (X, Y) the convolution counts
#{(x, y) in X x Y : x + y = z} are constant over each class Z.

Canonical form is the one equality notion used everywhere: classes hold
ascending elements and are ordered by their minimum element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .arith import divisors, is_prime
from .errors import (
    NotAnAGroup,
    NotAPartition,
    NotClosedUnderProduct,
    NotComplementary,
    NotInverseClosed,
    ZeroClassNotSingleton,
)
from .perm import orbits_of_perms


@dataclass(frozen=True)
class SRing:
    """A validated S-ring over Z_n.  Construct via `validate`."""

    n: int
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.classes)

    def __repr__(self):
        return f"SRing(n={self.n}, rank={self.rank})"

    def key(self) -> tuple:
        """Hashable canonical identity (used for dedup and equality tests)."""
        return (self.n, self.classes)


@dataclass(frozen=True)
class Section:
    """Orders (u, l) of a nested pair of A-groups, representing U/L."""

    u: int
    l: int

    @property
    def order(self) -> int:
        return self.u // self.l


@dataclass(frozen=True)
class RadicalReport:
    per_class_radical: tuple[int, ...]
    ring_radical: int
    well_defined: bool


def canonical_classes(classes) -> tuple[tuple[int, ...], ...]:
    """The canonical class order: ascending elements, classes by minimum.

    For a valid partition of Z_n, `(n, canonical_classes(classes))` is the
    key of the ring that `validate` returns.
    """
    return tuple(sorted((tuple(sorted(c)) for c in classes), key=lambda c: c[0] if c else -1))


def validate(n: int, classes) -> SRing:
    """Check all S-ring axioms and return the canonical SRing.

    Raises NotAPartition, ZeroClassNotSingleton, NotInverseClosed or
    NotClosedUnderProduct (with the offending data) when an axiom fails.
    """
    if n < 1:
        raise ValueError("n must be positive")
    canon = canonical_classes(classes)
    seen = [False] * n
    for c in canon:
        if not c:
            raise NotAPartition("empty class")
        for x in c:
            if not 0 <= x < n or seen[x]:
                raise NotAPartition(f"element {x} repeated or out of range")
            seen[x] = True
    if not all(seen):
        raise NotAPartition("classes do not cover Z_n")
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

    # structure constants: O(n^2) counting overall plus a reset per pair
    counts = [0] * n
    for X in canon:
        for Y in canon:
            for z in range(n):
                counts[z] = 0
            for x in X:
                for y in Y:
                    counts[(x + y) % n] += 1
            for Z in canon:
                c0 = counts[Z[0]]
                for z in Z[1:]:
                    if counts[z] != c0:
                        raise NotClosedUnderProduct(X, Y, Z[0], z)

    return SRing(n, canon, tuple(class_of))


def group_ring(n: int) -> SRing:
    """The full group ring: all classes are singletons."""
    return SRing(
        n, tuple((i,) for i in range(n)), tuple(range(n))
    )


def a_groups(A: SRing) -> list[int]:
    """Orders d | n whose subgroup is a union of classes; includes 1 and n."""
    out = []
    for d in divisors(A.n):
        step = A.n // d
        sub = set(range(0, A.n, step))
        if all(set(A.classes[i]) <= sub for i in {A.class_of[x] for x in sub}):
            out.append(d)
    return out


def restrict(A: SRing, d: int) -> SRing:
    """A_H for the A-group H of order d, relabeled to Z_d via x -> x/(n/d)."""
    if d not in a_groups(A):
        raise NotAnAGroup(f"order {d} is not an A-group of {A!r}")
    step = A.n // d
    sub_classes = {A.class_of[x] for x in range(0, A.n, step)}
    new = [tuple(x // step for x in A.classes[i]) for i in sorted(sub_classes)]
    return validate(d, new)


def quotient(A: SRing, l: int) -> SRing:
    """A_{G/L} for the A-group L of order l, over Z_{n/l} via x -> x mod n/l."""
    if l not in a_groups(A):
        raise NotAnAGroup(f"order {l} is not an A-group of {A!r}")
    m = A.n // l
    images = []
    seen = set()
    for c in A.classes:
        img = tuple(sorted({x % m for x in c}))
        if img not in seen:
            seen.add(img)
            images.append(img)
    # images of classes either coincide or are disjoint for a valid ring
    return validate(m, images)


def restrict_section(A: SRing, s: Section) -> SRing:
    """A_S for the section S = U/L, an S-ring over Z_{u/l}."""
    return quotient(restrict(A, s.u), s.l)


def sections(A: SRing, proper_only: bool = False) -> list[Section]:
    """All A-sections (u, l); with proper_only, excludes (n, 1)."""
    ags = a_groups(A)
    out = [
        Section(u, l)
        for u in ags
        for l in ags
        if u % l == 0 and not (proper_only and u == A.n and l == 1)
    ]
    return out


def radical_of_class(A: SRing, i: int) -> int:
    """|{g : g + X = X}| for class X = classes[i]; a divisor of n."""
    X = set(A.classes[i])
    x0 = A.classes[i][0]
    return sum(1 for g in range(A.n) if (x0 + g) % A.n in X
               and all((x + g) % A.n in X for x in X))


def highest_classes(A: SRing) -> list[int]:
    """Indices of classes generating the whole of Z_n."""
    out = []
    for i, c in enumerate(A.classes):
        g = A.n
        for x in c:
            g = math.gcd(g, x)
        if g == 1 or (A.n == 1 and i == 0):
            out.append(i)
    return out


def radical(A: SRing) -> RadicalReport:
    """Radical orders per class plus the ring radical from highest classes.

    When the highest classes disagree, well_defined is False and the ring
    radical falls back to the order of the intersection of their radicals
    (a gcd, since subgroups of Z_n are unique per order).
    """
    per_class = tuple(radical_of_class(A, i) for i in range(A.rank))
    highs = highest_classes(A)
    if not highs:  # only possible for n = 1
        return RadicalReport(per_class, 1, True)
    rads = [per_class[i] for i in highs]
    if len(set(rads)) == 1:
        return RadicalReport(per_class, rads[0], True)
    inter = 0
    for r in rads:
        inter = math.gcd(inter, r)
    return RadicalReport(per_class, inter, False)


def is_primitive(A: SRing) -> bool:
    """No proper nontrivial A-group (and n > 1)."""
    return A.n > 1 and a_groups(A) == [1, A.n]


def is_quasidense(A: SRing) -> bool:
    """Every primitive A-section has prime order."""
    for s in sections(A):
        if s.order > 1 and is_primitive(restrict_section(A, s)):
            if not is_prime(s.order):
                return False
    return True


def is_dense(A: SRing) -> bool:
    """Every subgroup of Z_n is an A-group."""
    return a_groups(A) == divisors(A.n)


def wreath_decompositions(A: SRing) -> list[Section]:
    """Proper sections (u, l) such that A is the U/L-wreath product.

    Condition: every class outside U has radical containing L.  Proper
    means l > 1 and u < n.  Sorted by (u, l).
    """
    ags = a_groups(A)
    rad = [radical_of_class(A, i) for i in range(A.rank)]
    out = []
    for u in ags:
        if u == A.n:
            continue
        step = A.n // u
        outside = [i for i, c in enumerate(A.classes) if any(x % step for x in c)]
        for l in ags:
            if l == 1 or u % l != 0:
                continue
            if all(rad[i] % l == 0 for i in outside):
                out.append(Section(u, l))
    return sorted(out, key=lambda s: (s.u, s.l))


def multiplier_stabilizer(A: SRing) -> list[int]:
    """Units m of Z_n with m*X = X for every class X (a group)."""
    n = A.n
    return [
        m
        for m in range(1, n + 1 if n == 1 else n)
        if math.gcd(m, n) == 1
        and all(A.class_of[m * x % n] == A.class_of[x] for x in range(n))
    ] or [1]


def is_cyclotomic(A: SRing):
    """The full multiplier group K* when the classes are its orbits, else None."""
    from .construct import MultiplierGroup  # local import avoids a cycle

    n = A.n
    kstar = multiplier_stabilizer(A)
    multipliers = [tuple(m * x % n for x in range(n)) for m in kstar]
    if tuple(orbits_of_perms(n, multipliers)) == A.classes:
        return MultiplierGroup(n, tuple(kstar), tuple(kstar))
    return None


def tensor_split(A: SRing, d: int) -> bool:
    """Whether A = A_H (x) A_H' for the complementary A-groups of orders d, n/d."""
    n = A.n
    e = n // d
    if math.gcd(d, e) != 1:
        raise NotComplementary(f"{d} and {n // d} are not coprime")
    ags = a_groups(A)
    if d not in ags or e not in ags:
        raise NotComplementary(f"orders {d}, {e} must both be A-groups")
    for c in A.classes:
        proj_d = {x % d for x in c}
        proj_e = {x % e for x in c}
        if len(c) != len(proj_d) * len(proj_e):
            return False
        # CRT: the class must be the full product of its projections
        got = {x for x in c}
        want = set()
        for a in proj_d:
            for b in proj_e:
                # solve x = a mod d, x = b mod e
                inv = pow(e, -1, d)
                want.add((b + e * ((a - b) * inv % d)) % n)
        if got != want:
            return False
    return True
