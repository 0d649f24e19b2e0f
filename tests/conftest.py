"""Shared helpers: small brute-force oracles used to cross-check the
library, the catalogs n <= 72 shared by the digest gates, and a terminal
summary hook for the acceptance report.

The reference implementations the library does not need live here: the
permutation product `mult` and `inverse`, the element BFS `closure` (the
reference for `PermGroup.order` and `perm_gen_wreath`), the normality
test by conjugation `is_normal_subgroup` (the reference for
`is_normal_sring`), `orbits_of_perms`, and the subgroup and projection
maps of Z_n, `subgroup_elements` and `project`, and `a_groups_by_scan`,
one label scan per divisor, the reference for `SRing.a_groups`.
`minimal_by_sections` decides every proper section ring, the reference
for `minimal_nonschurian_check`; it builds them with `sections`, every
A-section (u, l), and `restrict_section`, the ring of U/L.
`highest_classes` lists the classes that generate Z_n, the reference
for `radical`'s class of 1.  `is_normal_sring` tests the translations
for normality in aut(A) on the library's own 0-stabilizer generators,
against `is_normal_subgroup`.  `set_partitions` lists every partition
of a list, the reference for the oracle's partition walker.
`full_join` is the closure with the unreduced wreath join, which glues
every pair whose sections agree: the reference for `enumerate_srings`
past the frozen digests and for its two join filters."""

import itertools
import math

import numpy as np
import pytest

from schurring.arith import divisors
from schurring.catalog import enumerate_srings, unit_subgroups
from schurring.construct import _gen_wreath_labels, _tensor_labels, cyclotomic, rank2
from schurring.errors import NotAnAGroup
from schurring.perm import identity, merge_orbits, orbit_partition
from schurring.schurity import _aut_data, is_schurian
from schurring.sring import SRing, _first_seen, quotient, restrict


@pytest.fixture(scope="session")
def catalogs():
    """enumerate_srings(n) for every n <= 72, enumerated once per session."""
    return {n: enumerate_srings(n) for n in range(1, 73)}


def full_join(n):
    """The closure over Z_n with every wreath product glued at each of its
    decompositions: the rings of order n and the join's triples
    (A1, A2, m) at order n, one per pair whose order-m sections agree."""
    ids, per_divisor, groups = {}, {}, {}

    def by_section(section, order, sub):
        if (section, order, sub) not in groups:
            by_id = {}
            for A in per_divisor[order]:
                try:
                    labels = section(A, sub).class_of
                except NotAnAGroup:
                    continue
                by_id.setdefault(ids[labels], []).append(A)
            groups[section, order, sub] = by_id
        return groups[section, order, sub]

    for d in divisors(n):
        found, triples = [], []

        def add(order, raw):
            class_of = _first_seen(raw)
            if class_of not in ids:
                ids[class_of] = len(ids)
                found.append(SRing(order, class_of))

        for K in unit_subgroups(d):
            add(d, cyclotomic(K).class_of)
        if d >= 2:
            add(d, rank2(d).class_of)
        for d1 in divisors(d):
            d2 = d // d1
            if 1 < d1 < d2 and math.gcd(d1, d2) == 1:
                for A1 in per_divisor[d1]:
                    for A2 in per_divisor[d2]:
                        add(*_tensor_labels(A1, A2))
        for n1 in divisors(d)[1:-1]:
            for m in divisors(n1)[:-1]:
                right = by_section(restrict, d * m // n1, m)
                for sid, left in by_section(quotient, n1, n1 // m).items():
                    for A1 in left:
                        for A2 in right.get(sid, ()):
                            triples.append((A1, A2, m))
                            add(*_gen_wreath_labels(A1, A2, m))
        per_divisor[d] = found
    return frozenset(per_divisor[n]), triples


def a_groups_by_scan(A):
    """The A-group orders of A, one O(n) label scan per divisor d: the
    labels of the multiples of n/d occur on d points in all."""
    out = []
    for d in divisors(A.n):
        labels = set(A.class_of[::A.n // d])
        if sum(map(labels.__contains__, A.class_of)) == d:
            out.append(d)
    return out


def restrict_section(A, u, l):
    """A_S for the section S = U/L, an S-ring over Z_{u/l}."""
    return quotient(restrict(A, u), l)


def sections(A):
    """All A-sections (u, l), (n, 1) included."""
    ags = A.a_groups
    return [(u, l) for u in ags for l in ags if u % l == 0]


def highest_classes(A):
    """Indices of the classes that generate the whole of Z_n."""
    return [i for i, c in enumerate(A.classes) if math.gcd(A.n, *c) == 1]


def minimal_by_sections(A):
    """Whether every proper section ring U/L of A, (u, l) != (n, 1), is
    schurian: each one built and decided."""
    return all(is_schurian(restrict_section(A, u, l)).schurian
               for u, l in sections(A) if (u, l) != (A.n, 1))


def is_normal_sring(A):
    """Whether the translations are normal in aut(A).

    aut(A) is generated by the translations and the generators of the
    stabilizer of 0.  The normalizer of the translations in Sym(n) is the
    holomorph, whose elements fixing 0 are the multipliers x -> m*x.  So
    the translations are normal iff every stabilizer generator g is the
    multiplier by g(1).
    """
    n = A.n
    return all(all(g[x] == g[1] * x % n for x in range(n)) for g in _aut_data(A).stabilizer_gens)


def mult(p, q):
    """First p, then q."""
    return tuple(q[x] for x in p)


def inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def closure(n, gens):
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


def is_normal_subgroup(gamma, delta):
    """Whether <delta> is normal in <gamma>; ValueError unless delta <= gamma."""
    if gamma.degree != delta.degree:
        raise ValueError("degree mismatch")
    for d in delta.generators:
        if d not in gamma:
            raise ValueError(f"{d} is not in the supergroup")
    for g in gamma.generators:
        ginv = inverse(g)
        for d in delta.generators:
            if mult(mult(ginv, d), g) not in delta:
                return False
    return True


def orbits_of_perms(n, perms):
    """Orbit partition of {0..n-1} under a set of permutations."""
    return orbit_partition(merge_orbits(np.arange(n), perms))


def set_partitions(points):
    """Every partition of the list `points` into nonempty classes, once
    each: the first point joins each class of a partition of the rest in
    turn, or a class of its own."""
    if not points:
        yield []
        return
    x, rest = points[0], points[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[x] + part[i]] + part[i + 1:]
        yield [[x]] + part


def subgroup_elements(n, d):
    """The unique subgroup of order d in Z_n: multiples of n/d, sorted."""
    if d <= 0 or n % d != 0:
        raise ValueError(f"{d} does not divide {n}")
    step = n // d
    return list(range(0, n, step))


def project(n, m, x):
    """The canonical projection Z_n -> Z_m (m | n), i.e. x mod m."""
    if m <= 0 or n % m != 0:
        raise ValueError(f"{m} does not divide {n}")
    return x % m


def is_color_automorphism(A, p):
    """Direct O(n^2) check that p preserves all Cayley colors of A."""
    n = A.n
    for x in range(n):
        for y in range(n):
            if A.class_of[(p[y] - p[x]) % n] != A.class_of[(y - x) % n]:
                return False
    return True


def brute_color_automorphisms(A):
    """All color automorphisms of A, by scanning Sym(n).  n <= 8 only."""
    return [
        p for p in itertools.permutations(range(A.n)) if is_color_automorphism(A, p)
    ]


def section_of_perm(g, block):
    """Action of g on residues mod block, or None if blocks are broken."""
    out = [-1] * block
    for x, y in enumerate(g):
        r, s = x % block, y % block
        if out[r] == -1:
            out[r] = s
        elif out[r] != s:
            return None
    return tuple(out)


def brute_wreath_elements(delta1, delta0, n, u, l):
    """The full element set of the canonical generalized wreath product,
    straight from the definition: pick f0 in delta0 and, for every coset
    of U, any element of delta1 whose section action matches the one f0
    forces on U/L.  Exponential; degrees <= 8 only."""
    ul, nl, nu = u // l, n // l, n // u
    e1 = closure(u, delta1.generators or [identity(u)])
    e0 = closure(nl, delta0.generators or [identity(nl)])
    by_section = {}
    for f in e1:
        by_section.setdefault(section_of_perm(f, ul), []).append(f)

    def forced_section(f0, x0):
        # what f0 does to the U/L-fibre over the coset x0 (residues mod nu)
        x0p = f0[x0 % nl] % nu
        t = []
        for z in range(ul):
            y = f0[(z * nu + x0) % nl]
            assert y % nu == x0p, "config must respect coset blocks"
            t.append(((y - x0p) % nl) // nu)
        return tuple(t)

    out = set()
    for f0 in e0:
        choices = []
        for x0 in range(nu):
            t = forced_section(f0, x0)
            choices.append(by_section.get(t, []))
        for family in itertools.product(*choices):
            g = [-1] * n
            for x0 in range(nu):
                x0p = f0[x0 % nl] % nu
                fx = family[x0]
                for a in range(u):
                    g[a * nu + x0] = fx[a] * nu + x0p
            out.add(tuple(g))
    return out


def sym_group_gens(n):
    """Generators of Sym(n) as tuples."""
    if n < 2:
        return []
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return [swap, cycle]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys

    mod = next(
        (
            m
            for name, m in sys.modules.items()
            if name.rsplit(".", 1)[-1] == "test_acceptance"
            and getattr(m, "RESULTS", None)
        ),
        None,
    )
    if mod is None:
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.RESULTS:
        terminalreporter.write_line(line)
