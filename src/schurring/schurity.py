"""Deciding schurity: color automorphism groups of S-rings and the
comparison of identity-stabilizer orbits with basic sets.

The Cayley color of a pair (x, y) is the class of y - x.  The color
automorphism group always contains the translations, so its order is
n times the order of the stabilizer of 0.  That stabilizer is found by a
depth-first search over color-preserving injections, with numpy-based
forward checking: assigning v -> w intersects every remaining candidate
row with the compatibility mask M[v][:, None] == M[w][None, :].

The stabilizer chain is built from the bottom up, as in Schreier-Sims:
the search walks the base n-1, n-2, ..., 1.  At level v the candidate
images of v are the points whose colors from 0..v-1 all equal v's; they
are kept as one integer label vector per level (equal labels, same
colors from 0..v-1), so n^2 ints in all, and the n x n candidate mask is
built only at levels with more than one candidate.  Every generator
found at a level above v fixes 0..v-1, so v's orbit starts as its orbit
under all generators found so far, and only a candidate w outside that
orbit starts a DFS, from the level's mask ANDed with the mask of (v, w).
A DFS that fails kills w's whole orbit under the generators found so
far: if h(w) were an image of v for some such h, w would be one too.
The generators found form a strong generating set of the stabilizer
relative to the base, which gives both the group order (product of the
orbit sizes along the chain) and the stabilizer orbit partition.  Orbits
are recomputed only when a generator is added.

Every frame of a DFS first reads off the map nearest the identity: each
unassigned point that is still its own candidate stays, each other one
goes to its first candidate.  The map is accepted iff it preserves every
color, checked on the rows of the points it moves only.  When every
unassigned point has exactly one candidate this map is the forced one,
and a frame whose read-off fails has nothing to branch on.  Otherwise
the frame branches on its first unassigned point, so the worst-case
depth is still one frame per unassigned point.  On a rank-2-like level,
where swapping v and w and fixing every other point preserves colors,
the first read-off succeeds, so such a level costs one frame instead of
one recursion per point.  The budget counts nodes: one per candidate
image the DFS tries when it branches, and one per point a read-off map
assigns, forced or guessed.

The search result depends only on the ring and the node budget, so it is
memoized on that pair in a bounded LRU memo (`AUT_MEMO_SIZE` entries).
A search that runs out of budget raises and is not memoized, and a call
with another budget is another key, so the memo never hides an overrun.

Rings over more than `MAX_SEARCH_DEGREE` points are refused with
CapExceeded before any n x n matrix is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapExceeded, NotNonSchurian, SearchBudgetExceeded
from .perm import PermGroup, is_normal_subgroup, orbits_of_perms, translations
from .sring import SRing, restrict_section, sections

DEFAULT_BUDGET = 10**8
AUT_MEMO_SIZE = 4096  # decided (ring, budget) pairs; census(n <= 36) has 1,275 rings
# In the worst case the DFS still recurses once per unassigned point, up to
# n - 2 frames each holding an n x n bool matrix: at n = 512 that is
# 510 * 256 KiB, about 128 MiB, and the depth stays well below Python's
# default recursion limit of 1000.  Rank-2-like levels finish in one frame
# (rank2(512) takes about 0.5 s).  The largest witness has n = 300.
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
    stabilizer_orbits: tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=AUT_MEMO_SIZE)
def _aut_data(A: SRing, budget: Optional[int] = None) -> _AutData:
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 0:
        raise ValueError("search budget must be non-negative")
    n = A.n
    check_search_degree(n)
    C = np.asarray(A.class_of, dtype=np.int16)
    idx = np.arange(n)
    M = C[(idx[None, :] - idx[:, None]) % n]  # M[x, y] = color(x, y)
    nodes = 0

    def charge(k):
        nonlocal nodes
        nodes += k
        if nodes > budget:
            raise SearchBudgetExceeded("automorphism search node budget exhausted")

    def extend(cand, image):
        """One automorphism extending the partial map `image` within the
        candidate matrix `cand`, or None; `image` is restored on None.

        First one full map is read off, charged one node per point it
        assigns: every unassigned point that is its own candidate stays,
        every other one goes to its first candidate.  It is accepted iff
        it preserves every color.  If it does not and every unassigned
        point had exactly one candidate, no map extends.  Otherwise the
        first unassigned point branches, one node per candidate image tried.
        """
        rest = image < 0
        counts = cand[rest].sum(axis=1)
        if not counts.all():
            return None
        todo = np.flatnonzero(rest)
        charge(todo.size)
        full = image.copy()
        full[todo] = todo
        go = todo[~cand[todo, todo]]
        full[go] = cand[go].argmax(axis=1)
        # Pairs of fixed points keep their color, and for a fixed a and a
        # moved b the color of (a, b) is the negation class of that of
        # (b, a), so the rows of the moved points decide.  Preserving
        # colors makes the map injective: equal images would give color 0.
        moved = np.flatnonzero(full != idx)
        if (M[full[moved]][:, full] == M[moved]).all():
            return tuple(full.tolist())
        if (counts == 1).all():
            return None
        v = int(todo[0])
        for w in np.flatnonzero(cand[v]):
            charge(1)
            image[v] = w
            found = extend(cand & (M[v][:, None] == M[w][None, :]), image)
            if found is not None:
                return found
        image[v] = -1
        return None

    # labels[v][x] == labels[v][y] iff x and y have equal colors from each
    # of 0..v-1: the candidate images of x under the stabilizer of 0..v-1.
    # Once the labels are all distinct, every later level is trivial.
    labels = [np.zeros(n, dtype=np.intp)]
    while len(labels) < n and labels[-1].max() < n - 1:
        v = len(labels) - 1
        labels.append(np.unique(labels[-1] * A.rank + M[v], return_inverse=True)[1])

    gens: list[tuple[int, ...]] = []
    orbits = [(x,) for x in range(n)]  # under gens, as orbits_of_perms gives them
    orbit = list(orbits)  # orbit[x]: the one containing x, one tuple object per orbit
    order = n
    # Reverse base: every generator found at a level above v fixes 0..v-1,
    # so v's orbit under the stabilizer of 0..v-1 starts as its orbit
    # under all of gens, and the generators end up a strong generating set.
    for v in range(len(labels) - 1, 0, -1):
        lab = labels[v]
        cands = np.flatnonzero(lab == lab[v])
        if cands.size > 1:
            fixed = lab[:, None] == lab[None, :]
            dead = set()
            for w in cands.tolist():
                if orbit[w] is orbit[v] or w in dead:
                    continue
                image = np.where(idx < v, idx, -1)
                image[v] = w
                f = extend(fixed & (M[v][:, None] == M[w][None, :]), image)
                if f is None:
                    # h(w) for h in the group found so far is no image of v
                    # either, or w would be one
                    dead.update(orbit[w])
                    continue
                gens.append(f)
                # the orbits under gens + [f] are those under f and a
                # permutation cycling each orbit under gens
                cycle = list(range(n))
                for o in orbits:
                    for i, x in enumerate(o):
                        cycle[x] = o[i - 1]
                orbits = orbits_of_perms(n, (cycle, f))
                for o in orbits:
                    for x in o:
                        orbit[x] = o
        order *= len(orbit[v])
    return _AutData(tuple(gens), order, tuple(orbits))


def automorphism_group(A: SRing, budget: Optional[int] = None) -> PermGroup:
    """The full color automorphism group, as translations plus the
    strong generators of the stabilizer of 0."""
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
    schurian = len(data.stabilizer_orbits) == A.rank
    mismatch = None
    if not schurian:
        for orb in data.stabilizer_orbits:
            cls = A.class_of[orb[0]]
            if len(orb) < len(A.classes[cls]):
                mismatch = (orb, cls)
                break
    return SchurityVerdict(schurian, data.order, data.stabilizer_orbits, mismatch)


def is_normal_sring(A: SRing, budget: Optional[int] = None) -> bool:
    """Whether the translations are normal in aut(A)."""
    return is_normal_subgroup(automorphism_group(A, budget), translations(A.n))


def minimal_nonschurian_check(A: SRing, budget: Optional[int] = None) -> bool:
    """True iff A is non-schurian but every proper section ring is schurian."""
    if is_schurian(A, budget).schurian:
        raise NotNonSchurian("ring is schurian; minimality is undefined")
    for s in sections(A, proper_only=True):
        if not is_schurian(restrict_section(A, s), budget).schurian:
            return False
    return True
