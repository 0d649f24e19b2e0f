"""Deciding schurity: color automorphism groups of S-rings and the
comparison of identity-stabilizer orbits with basic sets.

The Cayley color of a pair (x, y) is the class of y - x.  The color
automorphism group always contains the translations, so its order is
n times the order of the stabilizer of 0.  That stabilizer is found by a
depth-first search over color-preserving injections, with numpy-based
forward checking: assigning v -> w intersects every remaining candidate
row with the compatibility mask M[v][:, None] == M[w][None, :].

The search walks the base 1, 2, ..., n-1 once, carrying one n x n
boolean matrix `fixed`: the candidate images under maps that fix 0 and
every base point below the current level v.  It starts as the mask of
(0, 0) and is ANDed with the mask of (v, v) after each level.  Each
candidate w in row v of `fixed` that is not yet in v's orbit starts one
DFS from `fixed` ANDed with the mask of (v, w).  The automorphisms found
form a strong generating set of the stabilizer relative to the base,
which gives both the group order (product of the orbit sizes along the
chain) and the stabilizer orbit partition.  Every candidate image the
DFS tries costs one node of the budget.

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
# The DFS recurses once per point, up to n - 1 frames each holding an n x n
# bool matrix: at n = 512 that is 511 * 256 KiB, about 128 MiB, and the depth
# stays well below Python's default recursion limit of 1000.  The largest
# witness has n = 300.
MAX_SEARCH_DEGREE = 512


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
    if n > MAX_SEARCH_DEGREE:
        raise CapExceeded(f"n={n} exceeds the search degree cap {MAX_SEARCH_DEGREE}")
    C = np.asarray(A.class_of, dtype=np.int16)
    idx = np.arange(n)
    M = C[(idx[None, :] - idx[:, None]) % n]  # M[x, y] = color(x, y)
    nodes = 0

    def extend(cand, image):
        """One automorphism extending the partial map `image` within the
        candidate matrix `cand`, or None; `image` is restored on None."""
        nonlocal nodes
        rest = image < 0
        if not cand[rest].any(axis=1).all():
            return None
        todo = np.flatnonzero(rest)
        if todo.size == 0:
            return tuple(int(x) for x in image)
        v = int(todo[0])
        for w in np.flatnonzero(cand[v]):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded("automorphism search node budget exhausted")
            image[v] = w
            found = extend(cand & (M[v][:, None] == M[w][None, :]), image)
            if found is not None:
                return found
        image[v] = -1
        return None

    # fixed[x, y]: y is a candidate image of x under the color
    # automorphisms that fix 0 and every base point below the current one
    fixed = M[0][:, None] == M[0][None, :]
    gens: list[tuple[int, ...]] = []
    order = n
    for v in range(1, n):
        # the generators found so far all move an earlier base point, so
        # the orbit of v under the stabilizer of 0..v-1 starts as {v}
        level_gens: list[tuple[int, ...]] = []
        orb: tuple[int, ...] = (v,)
        for w in np.flatnonzero(fixed[v]):
            if w in orb:
                continue
            image = np.where(idx < v, idx, -1)
            image[v] = w
            f = extend(fixed & (M[v][:, None] == M[w][None, :]), image)
            if f is not None:
                gens.append(f)
                level_gens.append(f)
                orb = next(o for o in orbits_of_perms(n, level_gens) if v in o)
        order *= len(orb)
        fixed &= M[v][:, None] == M[v][None, :]
    return _AutData(tuple(gens), order, tuple(orbits_of_perms(n, gens)))


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
