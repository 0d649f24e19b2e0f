"""Permutation groups on n points: stabilizer chains, orbits, membership,
and the canonical generalized wreath product of permutation groups.

Permutations are tuples p of length n; p[i] is the image of i.  Products
compose left-to-right: (p * q)(i) = q[p[i]].

One Schreier-Sims routine builds the chains of `PermGroup` and of
`perm_gen_wreath`; nothing in the library lists a group's elements.
Every group the library builds for a ring contains the regular
translations, and `automorphism_group` passes x -> x + 1 first.  A chain
whose first generator is an n-cycle c gets level 0 in closed form, with
the powers of c as its transversal, and each other generator's Schreier
generators there repeat with a period dividing n, so only one period of
them is formed.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .errors import SectionActionMismatch

Perm = tuple[int, ...]

# rows in the first batch of Schreier generators `_schreier_residue` sifts
SIFT_BATCH = 32


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_perm(p, n: int) -> bool:
    return len(p) == n and sorted(p) == list(range(n))


class PermGroup:
    """A permutation group given by generators, with a stabilizer chain.

    The chain is built lazily on first use, from the generators alone, by
    a deterministic incremental Schreier-Sims on numpy arrays (Seress,
    *Permutation Group Algorithms*, 2003, ch. 4).  Each level keeps its
    base point and the coset representative of every point of its basic
    orbit and its inverse as rows of a small-int array; the representatives'
    column at the base point is the orbit itself.  A new
    strong generator extends an orbit in rounds that map the points just
    found by the generators and by every representative so far, so a
    long cycle takes logarithmically many rounds, not one per point.  A
    level's Schreier generators are sifted one strong generator at a
    time, in batches of doubling size, each a rows x n array with one
    flat gather per deeper level for the rows whose representative there
    is not the identity.  A row that repeats an earlier row, or one that
    sifted at the level before, is not sifted again.

    When the first generator c is an n-cycle, level 0 is not grown: its
    orbit is 0, c(0), c^2(0), ... and the representative of c^k(0) is c^k,
    both tables copied once from windows of that orbit written twice.  c's
    own Schreier generators are the identity (u_x * c = u_{c(x)}), so none
    is formed.  For another generator s, row k is sigma_k(s), the element
    of c^k * s * <c> that fixes 0; these obey the cocycle rule
    sigma_a(sigma_b(s)) = sigma_(a+b)(s), so once row p equals row 0 the
    rows repeat with period p, p | n, and the rows from p on are not
    formed: each copies a row that sifted or became a residue.
    """

    def __init__(self, degree: int, generators: Iterable[Perm]):
        self.degree = degree
        gens = []
        for g in generators:
            g = tuple(g)
            if not is_perm(g, degree):
                raise ValueError(f"not a permutation of degree {degree}: {g}")
            if g != identity(degree) and g not in gens:
                gens.append(g)
        self.generators: list[Perm] = gens

    # -- chain ---------------------------------------------------------

    @functools.cached_property
    def _chain(self) -> list["_Level"]:
        """The chain, with every point a possible base point."""
        levels: list[_Level] = []
        _schreier_sims(levels, self.generators, np.min_scalar_type(max(self.degree - 1, 0)))
        return levels

    def order(self) -> int:
        return math.prod(len(lvl.u) for lvl in self._chain)

    def __contains__(self, p) -> bool:
        p = tuple(p)
        if not is_perm(p, self.degree):
            return False
        return _sift(self._chain, 0, np.array([p]), self.degree)[1] is None


class _Level:
    """One level of a stabilizer chain: the base point, the level's strong
    generators (each stored with its inverse), and per point x of the base
    point's orbit under them (row pos[x]) a representative u with
    u[point] = x and its inverse.  So the orbit is the column u[:, point],
    in row order, and its size is len(u).  Row 0 is the identity, the
    representative of the base point."""

    def __init__(self, point: int, n: int, dtype):
        self.point = point
        self.gens: list[np.ndarray] = []
        self.ginv: list[np.ndarray] = []
        # per generator: the orbit prefix whose Schreier generators sifted
        self.checked: list[int] = []
        # the bytes of every Schreier generator of this level that sifted
        self.sifted: set[bytes] = set()
        self.pos = np.full(n, -1)
        self.pos[point] = 0
        self.u = np.arange(n, dtype=dtype)[None]
        self.uinv = self.u
        # set when row k of u is c^k for the n-cycle c = gens[0] (`_cyclic_level`)
        self.cyclic = False

    def add_gen(self, s: np.ndarray):
        """Add strong generator s and extend the orbit in rounds: s on
        every old point first, then every generator and every
        representative so far on the points just found.  A point r(x)
        found from x by map r gets representative "u_x, then r" and
        inverse "r^-1, then u_x^-1"; since the representatives found in
        one round map the next round's points, a cycle of length L is
        covered in about log2 L rounds."""
        n = len(s)
        sinv = np.empty_like(s)
        sinv[s] = np.arange(n)
        self.gens.append(s)
        self.ginv.append(sinv)
        self.checked.append(0)
        maps, maps_inv, start = s[None], sinv[None], 0
        while True:
            img = maps[:, self.u[start:, self.point]]
            fresh = self.pos[img] < 0
            if not fresh.any():
                return
            pts, first = np.unique(img[fresh], return_index=True)
            r, x = np.nonzero(fresh)
            r, x = r[first], x[first] + start
            new_u = maps.take(r[:, None] * n + self.u[x])  # u_x, then r
            new_uinv = self.uinv.take(x[:, None] * n + maps_inv[r])  # r^-1, then u_x^-1
            start = len(self.u)
            self.pos[pts] = np.arange(start, start + len(pts))
            self.u = np.concatenate([self.u, new_u])
            self.uinv = np.concatenate([self.uinv, new_uinv])
            maps = np.concatenate([np.array(self.gens), self.u[1:]])
            maps_inv = np.concatenate([np.array(self.ginv), self.uinv[1:]])


def _schreier_sims(levels: list[_Level], gens: Iterable, dtype) -> None:
    """Extend the chain `levels` by `gens`, by incremental Schreier-Sims.

    Each generator that does not sift through the chain so far joins it
    as a residue.  When the scan is at level i, the levels below i are a
    base and strong generating set of the group that level i + 1's
    generators generate, and level i sifts its unchecked Schreier
    generators through them.  A residue joins levels i + 1 .. j, where j
    is the level it dropped out at (a new level when it sifted through all
    of them), and the scan resumes at level j.  Orbits and
    representatives only grow, so a (orbit point, generator) pair that
    sifted once is never sifted again.

    `levels` may hold trivial levels built in advance: a prescribed base
    prefix.  New levels only ever follow the last one, so the prefix
    stays the first base points, in order.  On an empty chain whose first
    generator is an n-cycle, level 0 is built in closed form instead
    (`_cyclic_level`).
    """
    gens = list(gens)
    if not levels and gens:
        level = _cyclic_level(gens[0], dtype)
        if level is not None:
            levels.append(level)
            gens = gens[1:]
    for g in gens:
        hit = _sift(levels, 0, np.array([g], dtype), len(g))[1]
        if hit is None:
            continue
        i = _add_residue(levels, hit, -1)
        while i >= 0:
            hit = _schreier_residue(levels, i)
            i = i - 1 if hit is None else _add_residue(levels, hit, i)


def _cyclic_level(c, dtype) -> _Level | None:
    """Level 0, based at 0, of the group that the n-cycle c generates, or
    None if c is not an n-cycle on n >= 2 points.

    The orbit is 0, c(0), c^2(0), ..., and row k of the transversal is
    c^k, with inverse c^-k: c^k maps c^m(0) to c^(m+k)(0).  So in orbit
    coordinates both tables are windows of the orbit written twice, one
    stepping forward and one back along k, and each is copied once into
    its columns.  c's Schreier generators u_x * c * u_{c(x)}^-1 are all
    the identity, since u_x * c = u_{c(x)}: c is marked checked.  On
    x -> x + 1 this is the level `_Level.add_gen` grows, row for row.
    """
    n = len(c)
    orbit = [0]
    for _ in range(n - 1):
        orbit.append(int(c[orbit[-1]]))
    if n < 2 or len(set(orbit)) < n:
        return None
    lvl = _Level(0, n, dtype)
    o = np.array(orbit, dtype)
    lvl.pos[o] = np.arange(n)
    twice, w = np.concatenate((o, o)), o.itemsize
    lvl.u = np.empty((n, n), dtype)
    lvl.u[:, o] = np.ndarray((n, n), dtype, twice, 0, (w, w))  # [k, m] = c^(m+k)(0)
    lvl.uinv = np.empty((n, n), dtype)
    lvl.uinv[:, o] = np.ndarray((n, n), dtype, twice, n * w, (-w, w))  # [k, m] = c^(m-k)(0)
    lvl.cyclic = True
    lvl.add_gen(lvl.u[1].copy())
    lvl.checked[0] = n
    return lvl


def _schreier_residue(levels: list[_Level], i: int):
    """Sift level i's unchecked Schreier generators u_x * s * u_{s(x)}^-1
    through the levels below it, one strong generator s at a time; return
    the first that does not sift, as `_sift` does, or None.

    The orbit points x after s's checked prefix go in batches of
    `SIFT_BATCH`, twice that, four times that, ... rows, in orbit order.
    A batch usually fails within its first few rows, and the rows behind
    the first failure are gathered through every level only to be thrown
    away, so small batches come first.  Of a batch only the first copy
    of each row that has not sifted at this level before is sifted: the
    levels below only grow, so a row that sifted once would sift again,
    and a copy sifts as its first copy does.  Each row sifts on its own,
    so the first row that fails, and with it every residue and the whole
    chain, is the one a single batch of all the rows would give.

    On a cyclic level (`_cyclic_level`) row k is sigma_k(s) = c^k * s *
    c^-j, the one element of c^k * s * <c> that fixes the base point.  So
    sigma_a(sigma_b(s)) = sigma_(a+b)(s), and once sigma_p(s) = sigma_0(s)
    for some p > 0, row k + p copies row k for every k.  s's rows stop
    at the first such p: each later row copies one before p, which either
    sifted or became a residue that the levels below now hold, so by the
    scan invariant it sifts."""
    lvl = levels[i]
    for k, s in enumerate(lvl.gens):
        size = SIFT_BATCH
        while lvl.checked[k] < len(lvl.u):
            done = lvl.checked[k]
            stop = done + size
            batch = _apply_uinv(lvl.uinv, lvl.pos[s[lvl.u[done:stop, lvl.point]]], s[lvl.u[done:stop]])
            if lvl.cyclic:
                # the rows equal to row 0, sigma_0(s) = s * u_{s(point)}^-1
                again = (batch == lvl.uinv[lvl.pos[s[lvl.point]]][s]).all(axis=1)
                again[0] &= done > 0  # row 0 itself is no repeat
                if again.any():
                    batch, stop = batch[:again.argmax()], len(lvl.u)
            new = _unsifted(batch, lvl.sifted)
            keep = list(new.values())
            hit = _sift(levels, i + 1, batch[keep], len(s))[1] if keep else None
            if hit is not None:
                lvl.checked[k] = done + keep[hit[0]] + 1
                lvl.sifted.update(list(new)[:hit[0]])
                return hit
            lvl.sifted.update(new)
            lvl.checked[k] = min(stop, len(lvl.u))
            size *= 2
    return None


def _unsifted(batch: np.ndarray, sifted: set[bytes]) -> dict[bytes, int]:
    """The bytes of each row of `batch` that is not in `sifted`, mapped to
    the index of its first copy, in row order."""
    raw, w = batch.tobytes(), batch.shape[1] * batch.itemsize
    first: dict[bytes, int] = {}
    for r in range(len(batch)):
        key = raw[r * w:(r + 1) * w]
        if key not in sifted:
            first.setdefault(key, r)
    return first


def _apply_uinv(uinv: np.ndarray, rows: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Each row b of `batch` followed by uinv[row], by one flat gather;
    rows whose representative is row 0, the identity, are not gathered.
    `batch` itself is never written: the result is a new array, or
    `batch` when every row's representative is the identity."""
    hit = rows.nonzero()[0]
    if not len(hit):
        return batch
    n = batch.shape[1]
    if len(hit) == len(rows):
        return uinv.take(rows[:, None] * n + batch)
    out = batch.copy()
    out[hit] = uinv.take(rows[hit, None] * n + batch[hit])
    return out


def _sift(levels: list[_Level], start: int, batch: np.ndarray, nbase: int):
    """Sift the rows of `batch` through levels[start:].

    A row sifts when its residue fixes the first `nbase` points.  Returns
    (rest, hit): hit is None if every row sifts, else (row, residue, j)
    for the first row that does not: its partly sifted image and the
    level j it dropped out at (len(levels) if it sifted through all of
    them).  `rest` holds the residues of the rows before it.  Rows after
    a dropped row are cut from the batch, since only the first failure is
    wanted.  The caller's `batch` is left unchanged.
    """
    hit = None
    for j in range(start, len(levels)):
        lvl = levels[j]
        rows = lvl.pos[batch[:, lvl.point]]
        out = rows < 0
        if out.any():
            r = int(out.argmax())
            hit = (r, batch[r].copy(), j)
            batch, rows = batch[:r], rows[:r]
        batch = _apply_uinv(lvl.uinv, rows, batch)
    moved = (batch[:, :nbase] != np.arange(nbase)).any(axis=1)
    if moved.any():
        r = int(moved.argmax())
        return batch[:r], (r, batch[r].copy(), len(levels))
    return batch, hit


def _add_residue(levels: list[_Level], hit, i: int) -> int:
    """Add the residue h of a `_sift` hit to levels i+1..j, where j is
    the level it dropped out at (a new level, based at the first point h
    moves, if j is past the last); return j.

    A residue that sifted through every level fixes every base point, so
    a new level's base point is a new one and the chain has at most one
    level per point.  A base point met again means the chain is corrupt,
    and RuntimeError is raised before it can grow without bound."""
    _, h, j = hit
    if j == len(levels):
        n = len(h)
        point = int(np.flatnonzero(h != np.arange(n))[0])
        if any(lvl.point == point for lvl in levels):
            raise RuntimeError(f"stabilizer chain corrupt: point {point} is already a base point")
        levels.append(_Level(point, n, h.dtype))
    for lvl in levels[i + 1:j + 1]:
        lvl.add_gen(h)
    return j


def translations(n: int) -> PermGroup:
    """The regular cyclic group generated by x -> x + 1 mod n."""
    return PermGroup(n, [tuple((x + 1) % n for x in range(n))])


def merge_orbits(labels: np.ndarray, perms: Iterable[Perm]) -> np.ndarray:
    """Orbit labels of a partition joined by x ~ p(x) for every p in perms.

    `labels[x]` is the least point of x's block; so is the result's, for
    the finest partition coarser than the blocks in which every x and
    p(x) share a block.  Each round hooks the root of every block a
    crossing pair (x, p(x)) touches onto the least root it is paired with,
    then points every point at its root.  A round merges at least the
    larger root of each crossing pair, and the least point of a component
    is never hooked, so it ends as the component's label.
    """
    lab = np.array(labels, dtype=np.intp)
    P = np.array(list(perms), dtype=np.intp).reshape(-1, lab.size)
    while True:
        b = lab[P]
        cross = b != lab
        if not cross.any():
            return lab
        a, b = lab[cross.nonzero()[1]], b[cross]
        lo = np.minimum(a, b)
        np.minimum.at(lab, a, lo)
        np.minimum.at(lab, b, lo)
        while True:
            up = lab[lab]
            if (up == lab).all():
                break
            lab = up


def orbit_partition(labels) -> list[tuple[int, ...]]:
    """The blocks of a label vector, the points sharing a label, each
    ascending, in order of least point: one pass that groups the points by
    label, with the labels in order of first appearance."""
    blocks = {}
    for x, a in enumerate(labels):
        blocks.setdefault(a, []).append(x)
    return [tuple(b) for b in blocks.values()]


# -- generalized wreath product of permutation groups -------------------


def perm_gen_wreath(delta1: PermGroup, delta0: PermGroup, l: int) -> PermGroup:
    """The canonical generalized wreath product on Z_n.

    delta1 acts on U (identified with Z_u), delta0 on G/L (identified
    with Z_{n/l}): u and n/l are the groups' degrees, and l | u | n.
    Both must induce the same group on the common section U/L
    (identified with Z_{u/l}); U_right and (G/L)_right must be contained
    in the respective inputs.

    delta1 acts on U/L + U, and one Schreier-Sims pass builds its chain
    from a base that starts with every point of U/L, in order.  The first
    u/l levels are then a chain of its section image, and the next level,
    the first based in U, has strong generators that generate the kernel
    of the section map.  The section maps of delta0 sift through the
    first u/l levels as one batch; the U part of each residue is the
    inverse of a preimage.  The images are compared by order, never
    listed.  The emitted generators are (i) one lift per generator of
    delta0, whose per-coset components are those preimages, and (ii) the
    kernel's generators acting on the block U alone.
    """
    u, n = delta1.degree, l * delta0.degree
    if min(l, u) < 1 or u % l or n % u:
        raise ValueError("need l | u | n")
    ul = u // l
    nl = n // l
    nu = n // u

    shift_nl = tuple((x + 1) % nl for x in range(nl))
    if nl > 1 and shift_nl not in delta0:
        raise ValueError("delta0 must contain the translations of Z_{n/l}")

    # delta1 on U/L + U: point z < ul is the coset z + L, point ul + a is a
    g1 = np.array(delta1.generators, dtype=np.intp).reshape(-1, u)
    sections = g1[:, :ul] % ul
    bad = (g1 % ul != sections[:, np.arange(u) % ul]).any(axis=1)
    if bad.any():
        raise SectionActionMismatch(
            f"generator {delta1.generators[int(bad.argmax())]} does not "
            f"respect blocks of size {l}"
        )
    dtype = np.min_scalar_type(ul + u - 1)
    levels = [_Level(z, ul + u, dtype) for z in range(ul)]
    _schreier_sims(levels, np.hstack([sections, ul + g1]), dtype)
    order1 = math.prod(len(lvl.u) for lvl in levels[:ul])
    kernel = levels[ul].gens if len(levels) > ul else []
    shift = np.concatenate([np.arange(1, ul + 1) % ul, ul + np.arange(1, u + 1) % u])
    if _sift(levels, 0, shift[None].astype(dtype), ul + u)[1] is not None:
        raise ValueError("delta1 must contain the translations of Z_u")

    # section image of delta0: Schreier generators of the stabilizer of
    # the block U/L (cosets are residues mod n/u), restricted to U/L;
    # y[i, z, x0] is the image of z * n/u + x0 under generator i, and
    # generator i takes the coset x0 to the coset x0p[i, 0, x0]
    d0gens = delta0.generators or [identity(nl)]
    y = np.array(d0gens, dtype=np.intp).reshape(-1, ul, nu)
    x0p = y[:, :1] % nu
    if (y % nu != x0p).any():
        raise SectionActionMismatch("delta0 does not respect the U-coset blocks")
    # every row of ts is a bijection of U/L: each generator is a
    # permutation (PermGroup checks), and by the block check above it maps
    # the block x0 into the block x0p, so onto it, injectively
    ts = ((y - x0p) % nl // nu).transpose(0, 2, 1).reshape(-1, ul)
    order0 = PermGroup(ul, ts.tolist()).order()
    rest, hit = _sift(levels[:ul], 0, np.hstack(
        [ts, np.tile(np.arange(ul, ul + u), (len(ts), 1))]).astype(dtype), ul)
    if hit is not None or order0 != order1:
        raise SectionActionMismatch(
            "section actions on U/L differ: "
            f"|delta0 image| = {order0}, |delta1 image| = {order1}"
        )

    # lift i sends a * n/u + x0 to preimage[a] * n/u + x0p[i, 0, x0]
    preimages = np.argsort(rest[:, ul:], axis=1).reshape(-1, nu, u)
    lifts = preimages.transpose(0, 2, 1) * nu + x0p
    gens = [tuple(g) for g in lifts.reshape(-1, n).tolist()]
    for k in kernel:
        g = np.arange(n)
        g[::nu] = (k[ul:].astype(np.intp) - ul) * nu
        gens.append(tuple(g.tolist()))
    return PermGroup(n, gens)
