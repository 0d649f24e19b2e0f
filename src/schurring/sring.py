"""The S-ring data model over Z_n, and the structure read off its labels:
A-groups, the section maps, radicals, density and wreath decompositions.

An S-ring is a partition of {0, ..., n-1} into basic sets ("classes"):
class 0 is exactly {0}, the partition is closed under negation, and for
every pair of classes (X, Y) the convolution counts
#{(x, y) in X x Y : x + y = z} are constant over each class Z.

`SRing` stores the partition once, as its class-label vector `class_of`,
numbered by first appearance: class i is the i-th distinct label met
from point 0 upward, which is exactly the i-th class by minimum element.
Two labellings give the same vector iff they induce the same partition,
so `==` and `hash` on `class_of` are the ring's identity, and the order n
is its length.  The rank, the classes themselves (ascending, ordered by
their minimum) and the A-group lattice `a_groups` are derived from the
labels the first time they are read.  Every structural question below
(the section maps `restrict` and `quotient`, primitivity, density,
quasidensity, wreath decompositions, tensor splits) reads that one
lattice.

`validate` checks a partition that comes from outside.  A partition that
is an S-ring by theorem is not checked again: `restrict` and `quotient`
(a section of an S-ring by A-groups is an S-ring) and the builders in
`construct` hand a label for every point straight to `_from_labels`.

`validate` checks the product axiom with one table of structure
constants.  The row of a point p is the sorted keys (class of x, class of
p - x) over every x in Z_n.  Key (i, j) occurs #{x in X_i : p - x in X_j}
times, the coefficient of p in X_i * X_j.  So every product X_i * X_j is
constant on every class iff each point's row equals the row of its
class's least point.  The rows are read, a block of points at a time,
through `_color_matrix`, a strided view of the labels written twice, so
no table of indices is built.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import ne

import numpy as np

from .arith import divisors, is_prime
from .errors import (
    NotAnAGroup,
    NotAPartition,
    NotClosedUnderProduct,
    NotComplementary,
    NotInverseClosed,
    ZeroClassNotSingleton,
)
from .perm import orbit_partition

# The product check sorts one block of rows of n structure-constant keys at a
# time.  `analyze` has no degree cap, and a 200,000-point rank-2 document would
# otherwise ask for n^2 = 4 * 10^10 cells; 2^20 cells keep each array of a
# block at 8 MiB or less.
VALIDATE_BLOCK_CELLS = 2**20


@dataclass(frozen=True)
class SRing:
    """An S-ring over Z_n, stored as its canonical class labels alone: n
    is their number.  Construct a partition that comes from outside via
    `validate`."""

    class_of: tuple[int, ...]

    # not a cached_property: that writes the instance __dict__, which slows later
    # attribute reads in CPython 3.11; loops over points read n and class_of into locals
    @property
    def n(self) -> int:
        return len(self.class_of)

    @functools.cached_property
    def rank(self) -> int:
        return max(self.class_of) + 1

    @functools.cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The basic sets, ascending, in order of their least element."""
        return tuple(orbit_partition(self.class_of))

    @functools.cached_property
    def a_groups(self) -> tuple[int, ...]:
        """The A-group lattice: the orders d | n, ascending, whose subgroup
        (the multiples of n/d) is a union of classes, i.e. the classes of
        its points hold d points in all.  Includes 1 and n.  O(n + sigma(n))."""
        n, c = self.n, self.class_of
        size = Counter(c)
        return tuple(d for d in divisors(n) if sum(map(size.__getitem__, set(c[::n // d]))) == d)

    def __repr__(self):
        return f"SRing(n={self.n}, rank={self.rank})"


def validate(n: int, classes) -> SRing:
    """Check all S-ring axioms and return the canonical SRing.

    Raises NotAPartition, ZeroClassNotSingleton, NotInverseClosed or
    NotClosedUnderProduct (with the offending data) when an axiom fails.

    Both closure axioms compare each point z with its representative
    rep[z], the least point of its class.  Negation: the class of -z must
    be that of -rep[z].  Then -X lies inside one class Y and -Y inside X,
    so the sizes match and -X = Y.  Product: the rows of the structure
    constants must match (see the module docstring); on failure, (X, Y)
    is a pair of classes whose product counts differ at z1 = rep[z2] and
    z2.  This takes O(n^2 log n) time, in blocks whose tables hold at
    most VALIDATE_BLOCK_CELLS cells.
    """
    if n < 1:
        raise ValueError("n must be positive")
    classes = [tuple(c) for c in classes]
    # n distinct elements in range cover Z_n; checking the count first
    # also keeps a huge n with few elements from allocating anything
    if sum(map(len, classes)) != n:
        raise NotAPartition("class sizes do not sum to n")
    raw = [-1] * n
    for i, c in enumerate(classes):
        if not c:
            raise NotAPartition("empty class")
        for x in c:
            if not 0 <= x < n or raw[x] >= 0:
                raise NotAPartition(f"element {x} repeated or out of range")
            raw[x] = i
    A = _from_labels(raw)
    canon = A.classes
    if canon[0] != (0,):
        raise ZeroClassNotSingleton("class of 0 must be exactly {0}")

    # the keys class(x) * rank + class(p - x) fit this unsigned type, of 16
    # bits at least: numpy sorts long 8-bit rows about 30 times slower
    C = np.array(A.class_of, np.min_scalar_type(max(A.rank ** 2 - 1, 2**8)))
    # row p, column x of `table` is the class of p - x
    table = _color_matrix(C).T
    rep = np.array([c[0] for c in canon], np.intp)[C]
    # row 0 holds the class of -z
    bad = table[0] != table[0, rep]
    if bad.any():
        raise NotInverseClosed(canon[C[bad.argmax()]])

    # each block's points that are not the least of their class, then the
    # distinct representatives of those points: at most 2 * step rows
    keys = C * A.rank
    pts = np.flatnonzero(rep != np.arange(n))
    step = max(1, VALIDATE_BLOCK_CELLS // (2 * n))
    for a in range(0, len(pts), step):
        P = pts[a:a + step]
        R = rep[P]
        reps = np.flatnonzero(np.bincount(R))
        rows = table[np.concatenate((P, reps))]
        rows += keys
        rows.sort(axis=1)
        ref = rows[len(P):][np.searchsorted(reps, R)]
        bad = rows[:len(P)] != ref
        if bad.any():
            # the first row that differs, from column k on: the rows agree
            # before k, so the smaller key there occurs more often in one
            i, k = divmod(int(bad.argmax()), n)
            X, Y = divmod(int(min(rows[i, k], ref[i, k])), A.rank)
            raise NotClosedUnderProduct(canon[X], canon[Y], int(R[i]), int(P[i]))

    return A


def _color_matrix(C: np.ndarray) -> np.ndarray:
    """M[x, y] = C[(y - x) mod n], the color of (x, y) for the labels C:
    a view of C written twice, whose entry (x, y) is label n - x + y of the
    copy, so it steps one label back along x and one forward along y."""
    n, w = C.size, C.itemsize
    return np.ndarray((n, n), C.dtype, np.concatenate((C, C)), n * w, (-w, w))


def _first_seen(raw) -> tuple[int, ...]:
    """The sequence of labels `raw` renumbered by first appearance: the
    canonical `class_of` of the partition they induce."""
    # dict keys keep their insertion order: the distinct labels as first met
    ids = {c: i for i, c in enumerate(dict.fromkeys(raw))}
    return tuple(map(ids.__getitem__, raw))


def _from_labels(raw) -> SRing:
    """The SRing whose classes are the points of Z_n, n = len(raw), sharing
    a label in `raw`, a partition that satisfies the axioms; nothing is
    checked."""
    return SRing(_first_seen(raw))


def group_ring(n: int) -> SRing:
    """The full group ring: all classes are singletons."""
    return _from_labels(range(n))


def restrict(A: SRing, d: int) -> SRing:
    """A_H for the A-group H of order d, relabeled to Z_d via x -> x/(n/d)."""
    if d not in A.a_groups:
        raise NotAnAGroup(f"order {d} is not an A-group of {A!r}")
    return _from_labels(A.class_of[::A.n // d])


def quotient(A: SRing, l: int) -> SRing:
    """A_{G/L} for the A-group L of order l, over Z_{n/l} via x -> x mod n/l."""
    if l not in A.a_groups:
        raise NotAnAGroup(f"order {l} is not an A-group of {A!r}")
    m = A.n // l
    # images of classes coincide or are disjoint, and a class meets every
    # coset x + L of its image: so the classes meeting x + L are those with
    # x's image, and the least of them labels x
    return _from_labels([min(A.class_of[x::m]) for x in range(m)])


def radical_of_class(A: SRing, i: int) -> int:
    """|{g : g + X = X}| for class X = classes[i]: these g form a subgroup,
    so this is the largest d | n with X + n/d = X.  That subgroup is where
    X * (-X) has coefficient |X|, a union of classes, so d is an A-group
    order.  O(|a_groups| |X|)."""
    n, c = A.n, A.class_of
    X = A.classes[i]
    return max(d for d in A.a_groups if all(c[(x + n // d) % n] == i for x in X))


def radical(A: SRing) -> int:
    """The ring radical: the radical of a highest class.  Over a cyclic
    group all highest classes of an S-ring share one radical
    (Evdokimov-Ponomarenko), so the class of 1 is taken: the first highest
    class (class {0} is highest only when n = 1)."""
    return radical_of_class(A, A.class_of[1 % A.n])


def is_primitive(A: SRing) -> bool:
    """No proper nontrivial A-group (and n > 1)."""
    return A.n > 1 and A.a_groups == (1, A.n)


def is_quasidense(A: SRing) -> bool:
    """Every primitive A-section has prime order.

    The A_S-groups of a section S = U/L are exactly H/L for the A-groups
    H with L <= H <= U, so S is primitive iff L < U is a covering pair of
    the A-group lattice: no A-group lies strictly between them.  The
    verdict is read off `A.a_groups`; no section ring is built.
    """
    ags = A.a_groups
    return all(
        is_prime(u // l)
        for u in ags
        for l in ags
        if l < u
        and u % l == 0
        and not any(h % l == 0 and u % h == 0 for h in ags if l < h < u)
    )


def is_dense(A: SRing) -> bool:
    """Every subgroup of Z_n is an A-group."""
    return A.a_groups == tuple(divisors(A.n))


def _is_wreath(A: SRing, u: int, l: int) -> bool:
    """Whether every class outside the A-group U of order u is a union of
    cosets of the A-group L of order l <= U: x and x + n/l share a class
    for every x outside U.  O(n)."""
    n, c = A.n, A.class_of
    m, step = n // u, n // l
    # the points x whose class differs from that of x + n/l must lie in U,
    # the multiples of m
    moved = compress(range(n), map(ne, c, c[step:] + c[:step]))
    return not any(map(m.__rmod__, moved))


def wreath_decompositions(A: SRing) -> list[tuple[int, int]]:
    """Proper sections (u, l) such that A is the U/L-wreath product.

    Condition: every class outside U is a union of L-cosets (its radical
    contains L).  Proper means l > 1 and u < n.  Sorted by (u, l).
    """
    ags = A.a_groups
    return [(u, l) for u in ags[:-1] for l in ags[1:] if u % l == 0 and _is_wreath(A, u, l)]


def tensor_split(A: SRing, d: int) -> bool:
    """Whether A = A_H (x) A_H' for the complementary A-groups of orders d, n/d."""
    n = A.n
    if d < 1 or n % d:
        raise NotComplementary(f"{d} does not divide {n}")
    e = n // d
    if math.gcd(d, e) != 1:
        raise NotComplementary(f"{d} and {n // d} are not coprime")
    if not (d in A.a_groups and e in A.a_groups):
        raise NotComplementary(f"orders {d}, {e} must both be A-groups")
    # x -> (x mod d, x mod e) is one to one (CRT), so a class is the full
    # product of its projections iff it has as many points
    return all(len(c) == len({x % d for x in c}) * len({x % e for x in c}) for c in A.classes)
