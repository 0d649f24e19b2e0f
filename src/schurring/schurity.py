"""Deciding schurity: color automorphism groups of S-rings and the
comparison of identity-stabilizer orbits with basic sets.

The Cayley color of a pair (x, y) is the class of y - x.  The color
automorphism group always contains the translations, so its order is
n times the order of the stabilizer of 0.  That stabilizer is found by a
depth-first search over color-preserving injections, with numpy-based
forward checking: assigning v -> w intersects every remaining candidate
row with the compatibility mask M[v][:, None] == M[w][None, :].

The search produces a strong generating set of the stabilizer relative
to the base 1, 2, ..., n-1, which gives both the group order (product of
the orbit sizes along the chain) and the stabilizer orbit partition.

The search result depends only on the ring and the node budget, so it is
memoized on that pair in a bounded LRU memo (`AUT_MEMO_SIZE` entries).
A search that runs out of budget raises and is not memoized, and a call
with another budget is another key, so the memo never hides an overrun.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotNonSchurian, SearchBudgetExceeded
from .perm import PermGroup, is_normal_subgroup, orbits_of_perms, translations
from .sring import SRing, restrict_section, sections

DEFAULT_BUDGET = 10**8
AUT_MEMO_SIZE = 4096  # decided (ring, budget) pairs; census(n <= 36) has 1,275 rings


def color(A: SRing, x: int, y: int) -> int:
    """Class index of y - x: the color of the arc (x, y)."""
    return A.class_of[(y - x) % A.n]


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, nodes: int):
        self.remaining = nodes

    def spend(self, k: int = 1):
        self.remaining -= k
        if self.remaining < 0:
            raise SearchBudgetExceeded("automorphism search node budget exhausted")


class _AutSearch:
    """Backtracking search engine for color automorphisms fixing 0."""

    def __init__(self, A: SRing, budget: _Budget):
        self.n = A.n
        self.budget = budget
        n = A.n
        C = np.asarray(A.class_of, dtype=np.int16)
        idx = np.arange(n)
        self.M = C[(idx[None, :] - idx[:, None]) % n]  # M[x, y] = color(x, y)

    def find(self, forced: list[tuple[int, int]]):
        """One automorphism extending the forced partial map, or None."""
        n = self.n
        cand = np.ones((n, n), dtype=bool)
        image = np.full(n, -1, dtype=np.int64)
        for v, w in [(0, 0)] + forced:
            if image[v] == w:
                continue
            if not cand[v, w] or image[v] != -1:
                return None
            cand = cand & (self.M[v][:, None] == self.M[w][None, :])
            image[v] = w
        if not cand[image < 0].any(axis=1).all():
            return None
        return self._extend(cand, image)

    def _extend(self, cand, image):
        todo = np.flatnonzero(image < 0)
        if todo.size == 0:
            return tuple(int(x) for x in image)
        v = int(todo[0])
        Mv = self.M[v]
        for w in np.flatnonzero(cand[v]):
            self.budget.spend()
            new = cand & (Mv[:, None] == self.M[w][None, :])
            image[v] = w
            rest = image < 0
            if new[rest].any(axis=1).all():
                found = self._extend(new, image)
                if found is not None:
                    return found
            image[v] = -1
        return None


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
    n = A.n
    search = _AutSearch(A, _Budget(DEFAULT_BUDGET if budget is None else budget))
    base = list(range(1, n))
    gens: list[tuple[int, ...]] = []
    order = n
    for i, v in enumerate(base):
        prefix = [(p, p) for p in base[:i]]
        # the generators found so far all move an earlier base point, so
        # the orbit of v under the stabilizer of base[:i] starts as {v}
        level_gens: list[tuple[int, ...]] = []
        orb: tuple[int, ...] = (v,)
        # candidate images of v compatible with the fixed prefix
        cand = np.ones(n, dtype=bool)
        for p, _ in [(0, 0)] + prefix:
            cand &= search.M[p] == search.M[p][v]
        for w in np.flatnonzero(cand):
            w = int(w)
            if w in orb:
                continue
            f = search.find(prefix + [(v, w)])
            if f is not None:
                gens.append(f)
                level_gens.append(f)
                orb = next(o for o in orbits_of_perms(n, level_gens) if v in o)
        order *= len(orb)
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
