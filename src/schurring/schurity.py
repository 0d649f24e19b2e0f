"""Deciding schurity: color automorphism groups of S-rings and the
comparison of identity-stabilizer orbits with basic sets.

The Cayley color of a pair (x, y) is the class of y - x.  The color
automorphism group always contains the translations, so its order is
n times the order of the stabilizer of 0.  That stabilizer is found by a
depth-first search whose state is two integer label vectors, `src` and
`dst`: y is a candidate image of x iff src[x] == dst[y].  The points with
one label form a source cell and a target cell.  Mapping x to y
individualizes them: `src * rank + M[x]` and `dst * rank + M[y]` are
relabelled jointly, so that x and y become a singleton cell pair and
every other candidate keeps its colors from x and y.  A state is pruned
unless every cell has as many sources as targets, since an automorphism
that extends it maps each source cell onto its target cell.

The stabilizer chain is built from the bottom up, as in Schreier-Sims:
the search walks the base n-1, n-2, ..., 1.  At level v the candidate
images of v are the points whose colors from 0..v-1 all equal v's; they
are kept as one label vector per level (equal labels, same colors from
0..v-1), so n^2 ints in all.  Every generator found at a level above v
fixes 0..v-1, so v's orbit starts as its orbit under all generators
found so far, and only a candidate w outside that orbit starts a DFS,
from the level's labels on both sides with v mapped to w.  A DFS that
fails kills w's whole orbit under the generators found so far: if h(w)
were an image of v for some such h, w would be one too.  The generators
found form a strong generating set of the stabilizer relative to the
base, which gives both the group order (product of the orbit sizes along
the chain) and the stabilizer orbits: one label vector, the least point
of each orbit, merged with `perm.merge_orbits` when a generator is added.
`is_schurian` counts its labels.  Each orbit lies in one class, so when
there are as many orbits as classes the orbits are the classes, and only
a non-schurian verdict lists the labels as orbits.

Every frame of a DFS first reads off the map nearest the identity: a
point that is one of its own cell's targets stays, and the other points
of each cell go to its remaining targets in increasing order.  The
equal cell sizes make this map a bijection.  It is accepted iff it
preserves every color, checked on the rows of the points it moves only.
When every cell is a singleton this map is the forced one, and a frame
whose read-off fails has nothing to branch on.  Otherwise the frame
branches where the read-off went wrong: on the lowest-numbered moved
point whose row the map breaks and whose cell is not a singleton, over
that cell's targets.  If every such point is alone in its cell, it
branches on the lowest-numbered point whose cell is not a singleton.
Either way the search stays complete: an automorphism that extends the
state maps every point to one of its cell's targets, so branching on any
point of a cell that is not a singleton, over all of that cell's
targets, misses none.  The choice of point moves the number of frames
and which generators are found, never the group, its order or its
orbits.  A broken row marks a point whose image the read-off guessed
wrong, so individualizing it first settles the guess where it failed
(McKay and Piperno, "Practical graph isomorphism, II", 2014, branch on
the cell the current guess got wrong): on the 14 witness rings this
takes 445 frames where the lowest point of any open cell took 770.  On a
rank-2-like level, where swapping v and w and fixing every other point
preserves colors, the first read-off succeeds, so such a level costs
one frame.  The budget counts nodes:

- one node per candidate image the DFS tries when it branches;
- one node per point a read-off map moves, whether it is accepted or not.

Leung and Man show that every circulant S-ring is rank 2, cyclotomic,
a tensor product or a generalized wreath product.  Three kinds of ring
are decided without a search of their own.  `_decide`, which
`_aut_data` calls on a memo miss, checks the degree and the budget, then
takes the first case that applies:

1. rank 2: aut(A) is Sym(Z_n), so its 0-stabilizer is Sym({1..n-1}),
   of order (n-1)!, with one non-zero orbit, generated by the
   transposition (1 2) and the cycle (1 2 ... n-1) (none for n = 2, the
   transposition alone for n = 3);
2. plain over the least A-group order that qualifies, as below;
3. a coprime tensor product over the least A-group order that
   qualifies, as below;
4. anything else (a cyclotomic ring or a generalized wreath product)
   goes to the search.

A rank-2 ring has no proper A-group, so putting it first moves no
other ring off its path.

A is plain over an A-group U of order u when every class outside U is
a union of U-cosets (`sring._is_wreath` with l = u).  Then "x - y in U"
is a union of colors, so every color automorphism permutes the
U-cosets, and the color between two cosets depends only on the pair of
cosets: aut(A) is exactly aut(A_U) wr aut(A_{G/U}).  `_decide` takes
the least proper A-group order 1 < u < n over which A is plain, decides
A_U = `restrict(A, u)` and A_{G/U} = `quotient(A, u)` by `_aut_data` in
turn, and assembles, with m = n/u, so that U is the multiples of m and
its cosets are the residues mod m:

- the order |aut(A_U)|^m * |aut(A_{G/U})|;
- the 0-stabilizer orbit labels: those of A_U scaled by m on U, and off
  U that of x mod m in A_{G/U}, the least point of its orbit's preimage;
- the generators: A_U's stabilizer generators acting on U; for the least
  coset c of every non-zero orbit of A_{G/U}, the translation of Z_u and
  A_U's stabilizer generators acting on c + mZ alone; and every
  stabilizer generator g of A_{G/U}, lifted as
  x -> g(x mod m) + x - (x mod m).  They generate the stabilizer but are
  not a strong generating set.

A is a coprime tensor product when A = A_D (x) A_E for A-groups D and E
of coprime orders d < e = n/d (`sring.tensor_split`).  Then both coset
partitions, "x - y in D" and "x - y in E", are unions of colors, and the
color of (x, y) is the pair of the colors of its two projections, so
aut(A) is exactly aut(A_D) x aut(A_E) acting on Z_d x Z_e.  `_decide`
takes the least such d, decides `restrict(A, d)` and `restrict(A, e)`
by `_aut_data` in turn, and assembles by CRT, writing x = e*a + d*b with
a = x/e mod d and b = x/d mod e:

- the order |aut(A_D)| * |aut(A_E)|;
- the 0-stabilizer orbit of x is the product of the orbits of a and b,
  labelled by its least point;
- the generators: each factor's stabilizer generators acting on their
  own coordinate alone.

Deciding a ring computes its order and orbit labels only.  No verdict
reads the generators, so each `_AutData` builds them on the first read
of `stabilizer_gens` (by `automorphism_group`), as `SRing` derives its
classes: a search hands over the generators it found, and an assembly
builds its own from its factors' generators, read then.  So a census
builds none, and building them never searches and charges no nodes.

The result depends only on the ring and the node budget, so it is
memoized on the pair of the ring's labels `class_of` (its identity) and
the budget, in a bounded LRU dict of `AUT_MEMO_SIZE` entries.  A miss
decides the caller's own ring, so the rank and A-groups it has cached are
reused, and only the `_AutData` is stored.  That holds orders, orbit
labels, search generators and its factors' `_AutData`, never a ring, so
a ring and the classes and A-groups it caches die with their caller: a
sweep of one order after another keeps labels and decisions only.  A
search that runs out of budget raises and is not memoized, and a call
with another budget is another key, so the memo never hides an overrun.
The default budget of every entry point is `DEFAULT_BUDGET` itself, and
`_aut_data` has none, so omitting the budget and passing 10^8 share one
entry.  Each factor of a plain or tensor ring is decided with the
caller's budget, under the key a direct call would use, so a factor
decided before is a memo hit; a rank-2 ring and the assemblies charge no
nodes.  The budget so bounds every search, not the sum over a ring's
factors.  A negative budget is refused on entry, whichever case decides
the ring.

Rings over more than `MAX_SEARCH_DEGREE` points are refused with
CapExceeded before the search allocates its per-level labels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CapExceeded, NotNonSchurian, SearchBudgetExceeded
from .perm import PermGroup, merge_orbits, orbit_partition, translations
from .sring import SRing, _color_matrix, _is_wreath, quotient, restrict, tensor_split

DEFAULT_BUDGET = 10**8
AUT_MEMO_SIZE = 4096  # decided (labels, budget) keys; census(n <= 36) has 1,275 rings
# The n^2 part of the search is the per-level label vectors, about 2 MiB
# at n = 512; the color matrix M is a strided view of 2n int16 labels.  A
# DFS frame holds two n-vectors, and the depth is at most one frame per
# point, well below Python's default recursion limit of 1000.  Rank-2-like
# levels finish in one frame.  The largest witness has n = 300.  Raising
# the cap waits on a size bound for `PermGroup`: its Schreier-Sims on
# Sym(60) from a transposition and a 60-cycle takes 0.48-0.59 s on a
# shared 2-core Xeon, and `automorphism_group(rank2(n))` is Sym(n), which
# it builds from two generators: `.order()` on rank2(40) takes 0.10-0.13 s.
MAX_SEARCH_DEGREE = 512
# mover rows in the first block a read-off map is checked on; a census frame
# moves about 13 points
READ_OFF_BLOCK = 32


def check_search_degree(n: int) -> None:
    """Raise CapExceeded if the search would refuse a ring over n points."""
    if n > MAX_SEARCH_DEGREE:
        raise CapExceeded(f"n={n} exceeds the search degree cap {MAX_SEARCH_DEGREE}")


def color(A: SRing, x: int, y: int) -> int:
    """Class index of y - x: the color of the arc (x, y)."""
    return A.class_of[(y - x) % A.n]


@dataclass(frozen=True)
class SchurityVerdict:
    schurian: bool
    aut_order: int
    stabilizer_orbits: tuple[tuple[int, ...], ...]
    witness_mismatch: Optional[tuple[tuple[int, ...], int]]


@dataclass(frozen=True)
class _AutData:
    order: int
    orbit: tuple[int, ...]  # orbit[x]: the least point of x's 0-stabilizer orbit
    # builds the 0-stabilizer generators on the first read of
    # `stabilizer_gens`: no verdict reads them, so a census builds none
    _gens: Callable[[], tuple[tuple[int, ...], ...]] = field(repr=False, compare=False)

    @functools.cached_property
    def stabilizer_gens(self) -> tuple[tuple[int, ...], ...]:
        return self._gens()


def _relabel(keys: np.ndarray) -> np.ndarray:
    """Dense labels 0..k-1 of `keys`, equal iff the keys are, in key order."""
    order = keys.argsort()
    ranked = keys[order]
    step = np.empty(keys.size, dtype=np.intp)
    step[0] = 0
    np.not_equal(ranked[1:], ranked[:-1], out=step[1:])
    out = np.empty(keys.size, dtype=np.intp)
    out[order] = step.cumsum()
    return out


# (A.class_of, budget) -> _AutData, least recently used first
_aut_memo: dict[tuple[tuple[int, ...], int], _AutData] = {}


def _aut_data(A: SRing, budget: int) -> _AutData:
    """The data of aut(A), memoized on A's labels and the budget: a hit
    moves its entry to the end, a miss decides A itself and stores only the
    `_AutData`, and past `AUT_MEMO_SIZE` entries the least recently used
    one goes."""
    key = (A.class_of, budget)
    data = _aut_memo.pop(key, None)
    if data is None:
        data = _decide(A, budget)
        if len(_aut_memo) >= AUT_MEMO_SIZE:
            del _aut_memo[next(iter(_aut_memo))]
    _aut_memo[key] = data
    return data


def _decide(A: SRing, budget: int) -> _AutData:
    """The data of aut(A): direct for rank 2, assembled from the factors
    of a plain ring or a coprime tensor product, searched otherwise."""
    check_search_degree(A.n)
    if budget < 0:
        raise ValueError("search budget must be non-negative")
    n = A.n
    if A.rank == 2:
        return _rank2(n)
    ags = A.a_groups
    u = next((u for u in ags[1:-1] if _is_wreath(A, u, u)), None)
    if u is not None:
        return _plain_wreath(_aut_data(restrict(A, u), budget), _aut_data(quotient(A, u), budget), u, n // u)
    d = next((d for d in ags[1:-1] if d * d < n and math.gcd(d, n // d) == 1 and n // d in ags
              and tensor_split(A, d)), None)
    if d is not None:
        return _tensor(_aut_data(restrict(A, d), budget), _aut_data(restrict(A, n // d), budget), d, n // d)
    return _search(A, budget)


def _rank2(n: int) -> _AutData:
    """The data of aut(A) = Sym(n) for the rank-2 ring over Z_n, n >= 2."""
    return _AutData(math.factorial(n), (0,) + (1,) * (n - 1), functools.partial(_rank2_gens, n))


def _rank2_gens(n: int) -> tuple[tuple[int, ...], ...]:
    """(1 2) and (1 2 ... n-1), which generate Sym({1..n-1})."""
    gens = []
    if n > 2:
        gens.append((0, 2, 1) + tuple(range(3, n)))
    if n > 3:
        gens.append((0,) + tuple(range(2, n)) + (1,))
    return tuple(gens)


def _tensor(left: _AutData, right: _AutData, d: int, e: int) -> _AutData:
    """The data of aut(A) = aut(A_D) x aut(A_E) from `left`, the data of
    A_D, and `right`, that of A_E, where D and E have the coprime orders d
    and e: x = e*a + d*b is the point (a, b) of Z_d x Z_e."""
    a, b = _crt(d, e)
    # the orbit of (a, b) is the product of their orbits, labelled by its least point
    key = np.asarray(left.orbit)[a] * e + np.asarray(right.orbit)[b]
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    return _AutData(left.order * right.order, tuple(first[inv].tolist()),
                    functools.partial(_tensor_gens, left, right, d, e))


def _crt(d: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates (a, b) of every x = e*a + d*b in Z_d x Z_e."""
    x = np.arange(d * e)
    return x * pow(e, -1, d) % d, x * pow(d, -1, e) % e


def _tensor_gens(left: _AutData, right: _AutData, d: int, e: int) -> tuple[tuple[int, ...], ...]:
    """Each factor's stabilizer generators acting on its own coordinate alone."""
    a, b = _crt(d, e)
    gens = [(e * np.asarray(g)[a] + d * b) % (d * e) for g in left.stabilizer_gens]
    gens += [(e * a + d * np.asarray(g)[b]) % (d * e) for g in right.stabilizer_gens]
    return tuple(tuple(g.tolist()) for g in gens)


def _plain_wreath(inner: _AutData, outer: _AutData, u: int, m: int) -> _AutData:
    """The data of aut(A) = aut(A_U) wr aut(A_{G/U}) from `inner`, the data
    of A_U, and `outer`, that of A_{G/U}, where U has order u and index m:
    U is the multiples of m and its cosets are the residues mod m."""
    # outside U, the preimage of an orbit O of aut(A_{G/U})_0 starts at min O
    lab = np.asarray(outer.orbit)[np.arange(u * m) % m]
    lab[::m] = m * np.asarray(inner.orbit)
    return _AutData(inner.order ** m * outer.order, tuple(lab.tolist()),
                    functools.partial(_plain_wreath_gens, inner, outer, u, m))


def _plain_wreath_gens(inner: _AutData, outer: _AutData, u: int, m: int) -> tuple[tuple[int, ...], ...]:
    """A_U's stabilizer generators on U; for the least coset c of every
    non-zero orbit of A_{G/U}, the translation of Z_u and A_U's stabilizer
    generators on c + mZ alone; A_{G/U}'s stabilizer generators lifted."""
    x = np.arange(u * m)
    res = x % m

    def on_coset(c, g):
        """g, a permutation of Z_u, acting on the coset c + mZ alone."""
        p = x.copy()
        p[c::m] = c + m * np.asarray(g, dtype=np.intp)
        return p

    gens = [on_coset(0, g) for g in inner.stabilizer_gens]
    shift = tuple(range(1, u)) + (0,)
    for c in range(1, m):  # the least coset of every orbit but {0}, i.e. U
        if outer.orbit[c] == c:
            gens += [on_coset(c, g) for g in (shift, *inner.stabilizer_gens)]
    gens += [np.asarray(g, dtype=np.intp)[res] + x - res for g in outer.stabilizer_gens]
    return tuple(tuple(g.tolist()) for g in gens)


def _search(A: SRing, budget: int) -> _AutData:
    """The automorphism search of the module docstring, on any ring of at
    most `MAX_SEARCH_DEGREE` points: `_decide` checks the degree first."""
    n = A.n
    M = _color_matrix(np.array(A.class_of, dtype=np.int16))  # M[x, y] = color(x, y)
    idx = np.arange(n)
    rank = A.rank
    nodes = 0

    def charge(k):
        nonlocal nodes
        nodes += k
        if nodes > budget:
            raise SearchBudgetExceeded("automorphism search node budget exhausted")

    def individualize(src, dst, x, y):
        """The cells after mapping x to y: both sides refined by the colors
        from x and from y, relabelled jointly so that equal labels still
        pair sources with targets."""
        both = _relabel(np.concatenate((src * rank + M[x], dst * rank + M[y])))
        return both[:n], both[n:]

    def extend(src, dst):
        """One color automorphism g with src[x] == dst[g[x]] for every x,
        as an index array, or None.

        The points labelled c in `src` are cell c's sources, those
        labelled c in `dst` its targets.  Unless every cell has as many
        sources as targets, no g exists.  Otherwise one map is read off,
        charged one node per point it moves: a point with src[x] == dst[x]
        stays, and the movers (src[x] != dst[x]) of each cell go to the
        cell's other targets, both in increasing order, which pairs them
        one to one.  It is accepted iff it preserves every color.  If not,
        and every cell is a singleton, no g exists.  Otherwise one point
        branches over its cell's targets, one node per target tried: the
        lowest-numbered mover whose row the map breaks and whose cell is
        not a singleton, else the lowest-numbered point whose cell is not
        a singleton.  Every g maps that point to one of those targets, so
        no g is missed.

        The movers' rows are checked in increasing order, in blocks of
        `READ_OFF_BLOCK`, twice that, four times that, ... rows.  A failed
        check stops at the first block that holds its branch point (when
        every cell is a singleton, at the first broken row), so the rows
        behind it are never gathered; the branch point is the one a check
        of all the rows would give.  An accepted map checks every row.
        """
        sizes = np.bincount(src)
        if not np.array_equal(sizes, np.bincount(dst)):
            return None
        movers = (src != dst).nonzero()[0]
        charge(movers.size)
        full = idx.copy()
        full[movers[src[movers].argsort(kind="stable")]] = movers[dst[movers].argsort(kind="stable")]
        # Pairs of fixed points keep their color, and for a fixed a and a
        # moved b the color of (a, b) is the negation class of that of
        # (b, a), so the rows of the moved points decide.
        shared = sizes[src] > 1  # points whose cell is not a singleton
        broken = False
        start, size = 0, READ_OFF_BLOCK
        while start < movers.size:
            rows = movers[start:start + size]
            bad = (M[full[rows]][:, full] != M[rows]).any(axis=1)
            if bad.any():
                if not shared.any():
                    return None
                broken = True
                wrong = rows[bad & shared[rows]]
                if wrong.size:
                    x = int(wrong[0])
                    break
            start += size
            size *= 2
        else:
            if not broken:
                return full
            x = int(shared.argmax())
        cell = src[x]
        for y in (dst == cell).nonzero()[0].tolist():
            charge(1)
            found = extend(*individualize(src, dst, x, y))
            if found is not None:
                return found
        return None

    # labels[v][x] == labels[v][y] iff x and y have equal colors from each
    # of 0..v-1: the candidate images of x under the stabilizer of 0..v-1.
    # Once the labels are all distinct, every later level is trivial.
    labels = [np.zeros(n, dtype=np.intp)]
    while len(labels) < n and labels[-1].max() < n - 1:
        v = len(labels) - 1
        labels.append(_relabel(labels[-1] * rank + M[v]))

    gens: list[tuple[int, ...]] = []
    orb = idx  # orb[x]: the least point of x's orbit under gens
    order = n
    # Reverse base: every generator found at a level above v fixes 0..v-1,
    # so v's orbit under the stabilizer of 0..v-1 starts as its orbit
    # under all of gens, and the generators end up a strong generating set.
    for v in range(len(labels) - 1, 0, -1):
        lab = labels[v]
        # the candidates outside v's orbit and every orbit killed so far
        todo = (lab == lab[v]).nonzero()[0]
        todo = todo[orb[todo] != orb[v]]
        while todo.size:
            w = int(todo[0])
            f = extend(*individualize(lab, lab, v, w))
            if f is None:
                # h(w) for h in the group found so far is no image of v
                # either, or w would be one
                todo = todo[orb[todo] != orb[w]]
                continue
            gens.append(tuple(f.tolist()))
            orb = merge_orbits(orb, (f,))
            todo = todo[orb[todo] != orb[v]]
        order *= int(np.count_nonzero(orb == orb[v]))
    return _AutData(order, tuple(orb.tolist()), functools.partial(tuple, gens))


def automorphism_group(A: SRing, budget: int = DEFAULT_BUDGET) -> PermGroup:
    """The full color automorphism group, as translations plus the
    generators of the stabilizer of 0."""
    data = _aut_data(A, budget)
    n = A.n
    gens = list(translations(n).generators) + list(data.stabilizer_gens)
    return PermGroup(n, gens)


def aut_order(A: SRing, budget: int = DEFAULT_BUDGET) -> int:
    return _aut_data(A, budget).order


def is_schurian(A: SRing, budget: int = DEFAULT_BUDGET) -> SchurityVerdict:
    """Compare the 0-stabilizer orbits of aut(A) with the basic sets.

    Each stabilizer orbit is contained in a class (colors from 0 are
    preserved), so the verdict reduces to an orbit count; the mismatch
    witness is the first orbit properly contained in its class.
    """
    data = _aut_data(A, budget)
    if len(set(data.orbit)) == A.rank:
        # one orbit per class, each inside its class: the orbits are the classes
        return SchurityVerdict(True, data.order, A.classes, None)
    orbits = tuple(orbit_partition(data.orbit))
    mismatch = next((orb, A.class_of[orb[0]]) for orb in orbits
                    if len(orb) < len(A.classes[A.class_of[orb[0]]]))
    return SchurityVerdict(False, data.order, orbits, mismatch)


def minimal_nonschurian_check(A: SRing, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff A is non-schurian but every proper section ring is schurian.

    Every section of a schurian S-ring is schurian (Evdokimov-Ponomarenko),
    and a proper section U/L is a section of A_U when u < n and of A_{G/L}
    when l > 1.  So the restrictions to the proper A-groups and the
    quotients by the nontrivial ones decide: 2(k - 1) rings for an A-group
    lattice of k orders, read off `A.a_groups`.
    """
    if is_schurian(A, budget).schurian:
        raise NotNonSchurian("ring is schurian; minimality is undefined")
    ags = A.a_groups
    return all(is_schurian(restrict(A, u), budget).schurian for u in ags[:-1]) and all(
        is_schurian(quotient(A, l), budget).schurian for l in ags[1:])
