"""Permutation groups on n points: stabilizer chains, orbits, membership,
and the canonical generalized wreath product of permutation groups.

Permutations are tuples p of length n; p[i] is the image of i.  Products
compose left-to-right: (p * q)(i) = q[p[i]].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import NotASubgroup, SectionActionMismatch

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def mult(p: Perm, q: Perm) -> Perm:
    """First p, then q."""
    return tuple(q[x] for x in p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def is_perm(p, n: int) -> bool:
    return len(p) == n and sorted(p) == list(range(n))


class PermGroup:
    """A permutation group given by generators, with a stabilizer chain.

    The chain (deterministic Schreier-Sims, natural base order) is built
    lazily on first use; adequate for the degrees this package handles.
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
        self._chain: Optional[list["_Level"]] = None

    # -- chain ---------------------------------------------------------

    def _build_chain(self):
        """Deterministic Schreier-Sims, run to a fixpoint.

        Strong generators live in one pool; level i uses those fixing
        base[:i] pointwise.  A pass recomputes every transversal and
        sifts every Schreier generator; a pass with no new residue
        certifies the chain.  Quadratic-ish, fine at small degree.
        """
        if self._chain is not None:
            return
        n = self.degree
        e = identity(n)
        strong: list[Perm] = list(self.generators)
        base: list[int] = []

        def fix_base(g: Perm, i: int) -> bool:
            return all(g[b] == b for b in base[:i])

        def extend_base(g: Perm):
            if not any(fix_base(g, len(base)) and g[x] != x for x in range(n)):
                return
            for x in range(n):
                if g[x] != x and x not in base:
                    base.append(x)
                    return

        for g in strong:
            if fix_base(g, len(base)):
                extend_base(g)

        def build_levels() -> list[_Level]:
            levels = []
            for i, pt in enumerate(base):
                lvl = _Level(pt)
                lvl.gens = [g for g in strong if fix_base(g, i)]
                lvl.transversal = {pt: e}
                frontier = [pt]
                while frontier:
                    b = frontier.pop()
                    t = lvl.transversal[b]
                    for g in lvl.gens:
                        c = g[b]
                        if c not in lvl.transversal:
                            lvl.transversal[c] = mult(t, g)
                            frontier.append(c)
                levels.append(lvl)
            return levels

        def strip(g: Perm, levels, start: int) -> Perm:
            for lvl in levels[start:]:
                b = g[lvl.point]
                if b not in lvl.transversal:
                    return g
                g = mult(g, inverse(lvl.transversal[b]))
            return g

        while True:
            levels = build_levels()
            residue = None
            for i, lvl in enumerate(levels):
                for b, t in lvl.transversal.items():
                    for g in lvl.gens:
                        sg = mult(mult(t, g), inverse(lvl.transversal[g[b]]))
                        if sg == e:
                            continue
                        res = strip(sg, levels, i + 1)
                        if res != e:
                            residue = res
                            break
                    if residue:
                        break
                if residue:
                    break
            if residue is None:
                self._chain = levels
                return
            strong.append(residue)
            if fix_base(residue, len(base)):
                extend_base(residue)

    def order(self) -> int:
        self._build_chain()
        out = 1
        for lvl in self._chain:
            out *= len(lvl.transversal)
        return out

    def __contains__(self, p) -> bool:
        p = tuple(p)
        if not is_perm(p, self.degree):
            return False
        self._build_chain()
        for lvl in self._chain:
            b = p[lvl.point]
            if b not in lvl.transversal:
                return False
            p = mult(p, inverse(lvl.transversal[b]))
        return p == identity(self.degree)


@dataclass
class _Level:
    point: int
    gens: list[Perm] = field(default_factory=list)
    transversal: dict[int, Perm] = field(default_factory=dict)


def translations(n: int) -> PermGroup:
    """The regular cyclic group generated by x -> x + 1 mod n."""
    if n == 1:
        return PermGroup(1, [])
    return PermGroup(n, [tuple((x + 1) % n for x in range(n))])


def group_order(gamma: PermGroup) -> int:
    return gamma.order()


def orbits_of_perms(n: int, perms: Iterable[Perm]) -> list[tuple[int, ...]]:
    """Orbit partition of {0..n-1} under a set of permutations."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i, j in enumerate(p):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted((tuple(sorted(v)) for v in groups.values()), key=lambda t: t[0])


def point_stabilizer_orbits(gamma: PermGroup, x: int) -> list[tuple[int, ...]]:
    """Orbits of the stabilizer of x, from Schreier generators."""
    n = gamma.degree
    transversal = {x: identity(n)}
    frontier = [x]
    schreier = []
    while frontier:
        b = frontier.pop()
        t = transversal[b]
        for g in gamma.generators:
            c = g[b]
            if c not in transversal:
                transversal[c] = mult(t, g)
                frontier.append(c)
            else:
                schreier.append(mult(mult(t, g), inverse(transversal[c])))
    return orbits_of_perms(n, schreier)


def is_normal_subgroup(gamma: PermGroup, delta: PermGroup) -> bool:
    """Whether <delta> is normal in <gamma>; requires delta <= gamma."""
    if gamma.degree != delta.degree:
        raise NotASubgroup("degree mismatch")
    for d in delta.generators:
        if d not in gamma:
            raise NotASubgroup(f"{d} is not in the supergroup")
    for g in gamma.generators:
        ginv = inverse(g)
        for d in delta.generators:
            if mult(mult(ginv, d), g) not in delta:
                return False
    return True


def closure(n: int, gens: Iterable[Perm]) -> set[Perm]:
    """All elements of the generated group, by BFS (small groups only)."""
    elems = {identity(n)}
    frontier = [identity(n)]
    gens = [tuple(g) for g in gens]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = mult(p, g)
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    return elems


# -- generalized wreath product of permutation groups -------------------


def _section_perm(g: Perm, block: int) -> Optional[Perm]:
    """The permutation induced on Z_{len/block}... precisely: g acting on
    residues mod `block`, or None if g does not respect that congruence."""
    m = block
    out = [-1] * m
    for x, y in enumerate(g):
        r, s = x % m, y % m
        if out[r] == -1:
            out[r] = s
        elif out[r] != s:
            return None
    return tuple(out)


def _witness_table(degree: int, gens: list[Perm], block: int):
    """Map each element of the section image group to one preimage.

    BFS over the generators, so witnesses are deterministic.  Raises
    SectionActionMismatch if a generator does not respect the blocks.
    """
    table: dict[Perm, Perm] = {}
    e = identity(degree)
    table[identity(block)] = e
    frontier = [identity(block)]
    while frontier:
        t = frontier.pop(0)
        w = table[t]
        for g in gens:
            s = _section_perm(g, block)
            if s is None:
                raise SectionActionMismatch(
                    f"generator {g} does not respect blocks of size "
                    f"{degree // block}"
                )
            ts = mult(t, s)
            if ts not in table:
                table[ts] = mult(w, g)
                frontier.append(ts)
    return table


def _kernel_generators(degree: int, gens: list[Perm], block: int,
                       table: dict[Perm, Perm]) -> list[Perm]:
    """Generators of the kernel of the section map, by Schreier's lemma."""
    out = []
    e = identity(degree)
    for t, w in table.items():
        for g in gens:
            s = _section_perm(g, block)
            rep = table[mult(t, s)]
            k = mult(mult(w, g), inverse(rep))
            if k != e and k not in out:
                out.append(k)
    return out


def perm_gen_wreath(delta1: PermGroup, delta0: PermGroup,
                    n: int, u: int, l: int) -> PermGroup:
    """The canonical generalized wreath product on Z_n.

    delta1 acts on U (identified with Z_u), delta0 on G/L (identified
    with Z_{n/l}); l | u | n.  Both must induce the same group on the
    common section U/L (identified with Z_{u/l}); U_right and
    (G/L)_right must be contained in the respective inputs.

    The emitted generators are (i) one lift per generator of delta0,
    with the per-coset components chosen from a deterministic witness
    table of the section image, and (ii) the kernel of delta1's section
    map acting on the block U alone.
    """
    if u % l or n % u:
        raise ValueError("need l | u | n")
    if delta1.degree != u or delta0.degree != n // l:
        raise ValueError("degrees must be u and n/l")
    ul = u // l
    nl = n // l
    nu = n // u

    shift_u = tuple((x + 1) % u for x in range(u))
    shift_nl = tuple((x + 1) % nl for x in range(nl))
    if u > 1 and shift_u not in delta1:
        raise ValueError("delta1 must contain the translations of Z_u")
    if nl > 1 and shift_nl not in delta0:
        raise ValueError("delta0 must contain the translations of Z_{n/l}")

    table1 = _witness_table(u, delta1.generators or [identity(u)], ul)

    # section image of delta0: Schreier generators of the stabilizer of
    # the block U/L (cosets are residues mod n/u), restricted to U/L
    def t_of(f0: Perm, x0: int) -> Perm:
        x0p = f0[x0 % nl] % nu
        out = []
        for z in range(ul):
            y = f0[(z * nu + x0) % nl]
            if y % nu != x0p:
                raise SectionActionMismatch(
                    "delta0 does not respect the U-coset blocks"
                )
            out.append(((y - x0p) % nl) // nu)
        t = tuple(out)
        if sorted(t) != list(range(ul)):
            raise SectionActionMismatch("induced section map is not a bijection")
        return t

    d0gens = delta0.generators or [identity(nl)]
    image0 = closure(ul, [t_of(f0, x0) for f0 in d0gens for x0 in range(nu)])
    image1 = set(table1)
    if image0 != image1:
        raise SectionActionMismatch(
            "section actions on U/L differ: "
            f"|delta0 image| = {len(image0)}, |delta1 image| = {len(image1)}"
        )

    def lift(f0: Perm) -> Perm:
        out = [-1] * n
        for x0 in range(nu):
            x0p = f0[x0 % nl] % nu
            fx = table1[t_of(f0, x0)]
            for a in range(u):
                g = a * nu + x0
                out[g] = fx[a] * nu + x0p
        return tuple(out)

    gens = [lift(f0) for f0 in d0gens]
    for k in _kernel_generators(u, delta1.generators or [identity(u)], ul, table1):
        g = list(range(n))
        for a in range(u):
            g[a * nu] = k[a] * nu
        gens.append(tuple(g))
    return PermGroup(n, gens)
