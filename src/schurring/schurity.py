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
of each orbit, merged with `perm.merge_orbits` when a generator is added
and listed as orbits only by `is_schurian`.

Every frame of a DFS first reads off the map nearest the identity: a
point that is one of its own cell's targets stays, and the other points
of each cell go to its remaining targets in increasing order.  The
equal cell sizes make this map a bijection.  It is accepted iff it
preserves every color, checked on the rows of the points it moves only.
When every cell is a singleton this map is the forced one, and a frame
whose read-off fails has nothing to branch on.  Otherwise the frame
branches on the lowest-numbered point whose cell is not a singleton,
over that cell's targets.  On a rank-2-like level, where swapping v and
w and fixing every other point preserves colors, the first read-off
succeeds, so such a level costs one frame.  The budget counts nodes:

- one node per candidate image the DFS tries when it branches;
- one node per point a read-off map moves, whether it is accepted or not.

Plain wreath products are not searched.  A is plain over an A-group U of
order u when every class outside U is a union of U-cosets
(`sring._is_wreath` with l = u).  Then "x - y in U" is a union of colors,
so every color automorphism permutes the U-cosets, and the color between
two cosets depends only on the pair of cosets: aut(A) is exactly
aut(A_U) wr aut(A_{G/U}).  Before it searches, `_aut_data` takes the least
proper A-group order 1 < u < n over which A is plain, if there is one,
decides A_U = `restrict(A, u)` and A_{G/U} = `quotient(A, u)` by
`_aut_data` in turn, and assembles, with m = n/u, so that U is the
multiples of m and its cosets are the residues mod m:

- the order |aut(A_U)|^m * |aut(A_{G/U})|;
- the 0-stabilizer orbit labels: those of A_U scaled by m on U, and off
  U that of x mod m in A_{G/U}, the least point of its orbit's preimage;
- the generators: A_U's stabilizer generators acting on U; for the least
  coset c of every non-zero orbit of A_{G/U}, the translation of Z_u and
  A_U's stabilizer generators acting on c + mZ alone; and every
  stabilizer generator g of A_{G/U}, lifted as
  x -> g(x mod m) + x - (x mod m).  They generate the stabilizer but are
  not a strong generating set.

The result depends only on the ring and the node budget, so it is
memoized on that pair in a bounded LRU memo (`AUT_MEMO_SIZE` entries).
A search that runs out of budget raises and is not memoized, and a call
with another budget is another key, so the memo never hides an overrun.
Each factor of a plain ring is decided with the caller's budget, under
the key a direct call would use, so a factor decided before is a memo
hit; the assembly charges no nodes.  The budget so bounds every search,
not the sum over a ring's factors.

Rings over more than `MAX_SEARCH_DEGREE` points are refused with
CapExceeded before the n x n color matrix is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapExceeded, NotNonSchurian, SearchBudgetExceeded
from .perm import PermGroup, merge_orbits, orbit_partition, translations
from .sring import SRing, _is_wreath, a_groups, quotient, restrict, restrict_section, sections

DEFAULT_BUDGET = 10**8
AUT_MEMO_SIZE = 4096  # decided (ring, budget) pairs; census(n <= 36) has 1,275 rings
# The n^2 part of the search is the int16 color matrix M and the per-level
# label vectors: at n = 512 about 0.5 MiB and 2 MiB.  A DFS frame holds two
# n-vectors, and the depth is at most one frame per point, well below
# Python's default recursion limit of 1000.  Rank-2-like levels finish in
# one frame.  The largest witness has n = 300.  Raising the cap waits on a
# size bound for `PermGroup`: its Schreier-Sims on Sym(60) still takes 6-7 s
# on a 2-core Xeon, and `automorphism_group(rank2(n))` is Sym(n).
MAX_SEARCH_DEGREE = 512


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
    stabilizer_gens: tuple[tuple[int, ...], ...]
    order: int
    orbit: tuple[int, ...]  # orbit[x]: the least point of x's 0-stabilizer orbit


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


@functools.lru_cache(maxsize=AUT_MEMO_SIZE)
def _aut_data(A: SRing, budget: Optional[int] = None) -> _AutData:
    """The search's data of aut(A), from its factors when A is plain."""
    check_search_degree(A.n)
    u = next((u for u in a_groups(A)[1:-1] if _is_wreath(A, u, u)), None)
    if u is None:
        return _search(A, budget)
    return _plain_wreath(_aut_data(restrict(A, u), budget), _aut_data(quotient(A, u), budget), u, A.n // u)


def _plain_wreath(inner: _AutData, outer: _AutData, u: int, m: int) -> _AutData:
    """The data of aut(A) = aut(A_U) wr aut(A_{G/U}) from `inner`, the data
    of A_U, and `outer`, that of A_{G/U}, where U has order u and index m:
    U is the multiples of m and its cosets are the residues mod m."""
    x = np.arange(u * m)
    res = x % m
    # outside U, the preimage of an orbit O of aut(A_{G/U})_0 starts at min O
    lab = np.asarray(outer.orbit)[res]
    lab[::m] = m * np.asarray(inner.orbit)

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
    return _AutData(tuple(tuple(g.tolist()) for g in gens), inner.order ** m * outer.order,
                    tuple(lab.tolist()))


def _search(A: SRing, budget: Optional[int] = None) -> _AutData:
    """The automorphism search of the module docstring, on any ring."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 0:
        raise ValueError("search budget must be non-negative")
    n = A.n
    check_search_degree(n)
    C = np.asarray(A.class_of, dtype=np.int16)
    idx = np.arange(n)
    M = C[(idx[None, :] - idx[:, None]) % n]  # M[x, y] = color(x, y)
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
        and every cell is a singleton, no g exists; otherwise the
        lowest-numbered point whose cell is not a singleton branches over
        its cell's targets, one node per target tried.
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
        if (M[full[movers]][:, full] == M[movers]).all():
            return full
        if sizes.max() == 1:
            return None
        x = int((sizes[src] > 1).argmax())
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
    return _AutData(tuple(gens), order, tuple(orb.tolist()))


def automorphism_group(A: SRing, budget: Optional[int] = None) -> PermGroup:
    """The full color automorphism group, as translations plus the
    generators of the stabilizer of 0."""
    data = _aut_data(A, budget)
    n = A.n
    gens = list(translations(n).generators) + list(data.stabilizer_gens)
    return PermGroup(n, gens)


def aut_order(A: SRing, budget: Optional[int] = None) -> int:
    return _aut_data(A, budget).order


def is_schurian(A: SRing, budget: Optional[int] = None) -> SchurityVerdict:
    """Compare the 0-stabilizer orbits of aut(A) with the basic sets.

    Each stabilizer orbit is contained in a class (colors from 0 are
    preserved), so the verdict reduces to an orbit count; the mismatch
    witness is the first orbit properly contained in its class.
    """
    data = _aut_data(A, budget)
    orbits = tuple(orbit_partition(data.orbit))
    schurian = len(orbits) == A.rank
    mismatch = None
    if not schurian:
        for orb in orbits:
            cls = A.class_of[orb[0]]
            if len(orb) < len(A.classes[cls]):
                mismatch = (orb, cls)
                break
    return SchurityVerdict(schurian, data.order, orbits, mismatch)


def is_normal_sring(A: SRing, budget: Optional[int] = None) -> bool:
    """Whether the translations are normal in aut(A).

    aut(A) is generated by the translations and the generators of the
    stabilizer of 0.  The normalizer of the translations in Sym(n) is the
    holomorph, whose elements fixing 0 are the multipliers x -> m*x.  So
    the translations are normal iff every stabilizer generator g is the
    multiplier by g(1).
    """
    n = A.n
    return all(all(g[x] == g[1] * x % n for x in range(n)) for g in _aut_data(A, budget).stabilizer_gens)


def minimal_nonschurian_check(A: SRing, budget: Optional[int] = None) -> bool:
    """True iff A is non-schurian but every proper section ring is schurian."""
    if is_schurian(A, budget).schurian:
        raise NotNonSchurian("ring is schurian; minimality is undefined")
    for s in sections(A, proper_only=True):
        if not is_schurian(restrict_section(A, s), budget).schurian:
            return False
    return True
