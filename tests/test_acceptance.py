"""Acceptance gate: one test per top-level claim, each reporting a
pass/fail line (echoed in the terminal summary via conftest)."""

import math
import random
import time

from conftest import (
    brute_color_automorphisms,
    brute_wreath_elements,
    closure,
    is_color_automorphism,
    restrict_section,
    sections,
    sym_group_gens,
)
from schurring.arith import classify, divisors, equivalence_violations, factorize
from schurring.catalog import brute_force_enumerate, census, enumerate_srings
from schurring.construct import (
    MultiplierGroup,
    cyclotomic,
    gen_wreath,
    is_cyclotomic,
    k_m,
    units,
    witness,
    witness_detailed,
)
from schurring.errors import NotComplementary
from schurring.perm import PermGroup, perm_gen_wreath, translations
from schurring.schurity import automorphism_group, is_schurian
from schurring.sring import (
    is_dense,
    is_quasidense,
    quotient,
    radical,
    restrict,
    tensor_split,
    validate,
    wreath_decompositions,
)

RESULTS = []


def check(num, desc, ok, detail=""):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" [{detail}]"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_classification_equivalence():
    t0 = time.monotonic()
    bad = equivalence_violations(200000)
    dt = time.monotonic() - t0
    check(
        1,
        "family and split formulations agree for all n <= 200000 in < 10 s",
        bad == [] and dt < 10.0,
        f"violations={bad[:5]}, {dt:.1f}s",
    )


def test_criterion_02_minimum_nonschur_order_is_72():
    t0 = time.monotonic()
    below = all(classify(n).is_schur for n in range(1, 72))
    at72 = classify(72).nonschur_split == (8, 9)
    dt = time.monotonic() - t0
    check(2, "every n < 72 is in the families and 72 splits as (8, 9)",
          below and at72 and dt < 1.0, f"{dt:.2f}s")


def test_criterion_03_witness_validity():
    t0 = time.monotonic()
    w = witness_detailed(8, 9)  # internal compatibility checks assert
    revalidated = validate(72, [list(c) for c in w.ring.classes])
    expected = gen_wreath(cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2)
    identity_holds = quotient(w.a12, w.a12.n // 8) == expected
    dt = time.monotonic() - t0
    check(
        3,
        "witness(8,9) validates and its order-8 quotient identity holds",
        revalidated == w.ring and identity_holds and dt < 1.0,
        f"rank={w.ring.rank}, {dt:.2f}s",
    )


def test_criterion_04_nonschurity_at_72_and_120():
    t0 = time.monotonic()
    v72 = is_schurian(witness(8, 9))
    dt72 = time.monotonic() - t0
    orbit_ok = False
    if v72.witness_mismatch is not None:
        orb, cls = v72.witness_mismatch
        orbit_ok = set(orb) < set(witness(8, 9).classes[cls])
    t0 = time.monotonic()
    v120 = is_schurian(witness(8, 15))
    dt120 = time.monotonic() - t0
    check(
        4,
        "witness(8,9) and witness(8,15) are non-schurian, with an explicit "
        "stabilizer orbit properly inside a class",
        not v72.schurian and orbit_ok and dt72 < 120.0
        and not v120.schurian and dt120 < 600.0,
        f"aut orders {v72.aut_order}/{v120.aut_order}, "
        f"{dt72:.1f}s/{dt120:.1f}s",
    )


def test_criterion_05_all_rings_schurian_up_to_30():
    t0 = time.monotonic()
    total = bad = 0
    for n in range(1, 31):
        rep = census(n)
        total += rep.total
        bad += rep.total - rep.schurian_count
    dt = time.monotonic() - t0
    check(5, "census(n) reports every ring schurian for all n <= 30 in < 10 min",
          bad == 0 and dt < 600.0, f"{total} rings, {dt:.1f}s")


def test_criterion_06_enumeration_matches_brute_force():
    t0 = time.monotonic()
    ok = True
    counts = []
    for n in range(1, 13):
        a = enumerate_srings(n)
        b = brute_force_enumerate(n)
        counts.append(a.count_exact)
        ok = ok and set(a.rings) == set(b.rings)
        ok = ok and a.count_exact == b.count_exact
    dt = time.monotonic() - t0
    check(6, "closure enumeration equals the brute-force oracle for n <= 12",
          ok and dt < 300.0, f"counts={counts}, {dt:.1f}s")


def test_criterion_07_random_cyclotomic_rings_are_schurian():
    rng = random.Random(20260824)
    ok = True
    tried = 0
    while tried < 50:
        n = rng.randrange(2, 61)
        us = units(n)
        gens = rng.sample(us, rng.randrange(1, min(3, len(us) + 1)))
        A = cyclotomic(MultiplierGroup.from_generators(n, gens))
        ok = ok and is_schurian(A).schurian
        tried += 1
    check(7, "50 random cyclotomic rings (n <= 60) are all schurian", ok)


def test_criterion_08_aut_matches_exhaustive_search_up_to_7():
    ok = True
    checked = 0
    for n in range(1, 8):
        for A in brute_force_enumerate(n).rings:
            brute = brute_color_automorphisms(A)
            G = automorphism_group(A)
            same_order = G.order() == len(brute)
            members = all(p in G for p in brute)
            gens_in = all(tuple(g) in set(brute) for g in G.generators)
            ok = ok and same_order and members and gens_in
            checked += 1
    check(8, "automorphism groups equal the n!-scan for every ring, n <= 7",
          ok, f"{checked} rings")


def _safe_tensor_split(A, d):
    try:
        return tensor_split(A, d)
    except NotComplementary:
        return False


def _wreath_schurity_applicable(A, u, l):
    AU = restrict(A, u)
    AGL = quotient(A, l)
    ul = u // l
    cond1 = math.gcd(l, ul) == 1 and _safe_tensor_split(AU, l)
    cond2 = math.gcd(ul, A.n // u) == 1 and _safe_tensor_split(AGL, ul)
    return (cond1 or cond2), AU, AGL


def test_criterion_09_structural_property_suites():
    ok = True
    stats = {"entries": 0, "cyclotomic_radical": 0, "wreath_applicable": 0}
    for n in range(1, 31):
        odd_primes = [p for p, _ in factorize(n).factors if p != 2]
        odd_prime_power = n > 1 and n % 2 and len(factorize(n).factors) == 1
        for A in enumerate_srings(n).rings:
            stats["entries"] += 1
            rad = radical(A)
            qd = is_quasidense(A)
            if qd and rad == 1:
                # quasidense with trivial radical: cyclotomic, hence dense
                ok = ok and is_cyclotomic(A) is not None and is_dense(A)
            if qd:
                # every subgroup above the radical is an A-group
                ags = set(A.a_groups)
                ok = ok and all(
                    d in ags for d in divisors(n) if d % rad == 0
                )
            if is_cyclotomic(A) is not None and rad == 1:
                # sections of order divisible by all odd primes of n keep
                # the radical at most 2, and exactly 1 unless |S|_2 = 4
                stats["cyclotomic_radical"] += 1
                for u, l in sections(A):
                    order = u // l
                    if any(order % p for p in odd_primes):
                        continue
                    r = radical(restrict_section(A, u, l))
                    two_part = 2 ** ((order & -order).bit_length() - 1)
                    ok = ok and r <= 2 and (r == 1 or two_part == 4)
            if odd_prime_power and rad == 1:
                # trivial radical is inherited by all sections of Z_{p^k}
                ok = ok and all(
                    radical(restrict_section(A, u, l)) == 1
                    for u, l in sections(A)
                )
            for u, l in wreath_decompositions(A):
                applicable, AU, AGL = _wreath_schurity_applicable(A, u, l)
                if not applicable:
                    continue
                stats["wreath_applicable"] += 1
                ok = ok and is_schurian(A).schurian == (
                    is_schurian(AU).schurian and is_schurian(AGL).schurian
                )
    # the non-schurian witness must not admit an applicable decomposition
    # (its factors are rings over family orders, hence schurian)
    w = witness(8, 9)
    for u, l in wreath_decompositions(w):
        applicable, _, _ = _wreath_schurity_applicable(w, u, l)
        ok = ok and not applicable
    check(
        9,
        "structural suites (radical/density/cyclotomic/wreath-schurity) "
        "hold over all catalogs n <= 30",
        ok and stats["wreath_applicable"] > 0,
        f"{stats['entries']} entries, "
        f"{stats['wreath_applicable']} applicable wreath instances",
    )


def test_criterion_10_perm_wreath_matches_definition():
    def dihedral(n):
        return PermGroup(
            n,
            [tuple((x + 1) % n for x in range(n)), tuple((-x) % n for x in range(n))],
        )

    sym2 = PermGroup(2, sym_group_gens(2))
    ok = True
    # exact element-set agreement with the definition at degree <= 8
    for delta1, delta0, n, u, l in [
        (sym2, sym2, 4, 2, 2),
        (dihedral(4), dihedral(4), 8, 4, 2),
        (sym2, translations(6), 6, 2, 1),
        (dihedral(6), PermGroup(3, sym_group_gens(3)), 6, 6, 2),
    ]:
        G = perm_gen_wreath(delta1, delta0, n, u, l)
        ok = ok and closure(n, G.generators) == brute_wreath_elements(
            delta1, delta0, n, u, l
        )
    # generators are color automorphisms of the matching S-ring wreaths
    for A1, A2, m, d1, d0 in [
        (cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2, dihedral(4), dihedral(4)),
        (cyclotomic(k_m(6)), cyclotomic(k_m(6)), 3, dihedral(6), dihedral(6)),
        (cyclotomic(k_m(4)), cyclotomic(k_m(8)), 4, dihedral(4), dihedral(8)),
    ]:
        A = gen_wreath(A1, A2, m)
        u, l = A1.n, A1.n // m
        G = perm_gen_wreath(d1, d0, A.n, u, l)
        ok = ok and all(is_color_automorphism(A, g) for g in G.generators)
    check(10, "permutation wreath equals the definitional element set at "
          "degree <= 8 and lands inside the ring automorphisms", ok)
