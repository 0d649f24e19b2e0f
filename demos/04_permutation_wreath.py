"""The canonical generalized wreath product of permutation groups.

Given Delta_1 acting on the subgroup U of Z_n and Delta_0 acting on the
quotient by L (with matching actions on the common section U/L), the
wreath product acts on all of Z_n: it moves the U-cosets through
Delta_0 while twisting each coset fibre by elements of Delta_1 whose
section action agrees.  Here we build it for the dihedral groups on
Z_4 glued over Z_2, compare with the automorphism group of the
corresponding S-ring wreath product over Z_8, and confirm that every
generator preserves the ring's Cayley colors.  Then a ring over Z_36
whose section U/L = Z_9 carries all of Sym(9): the wreath product of its
section automorphism groups is its whole automorphism group.
"""

from schurring import (
    automorphism_group,
    cyclotomic,
    gen_wreath,
    k_m,
    perm_gen_wreath,
    quotient,
    restrict,
    validate,
)
from schurring.perm import PermGroup
from schurring.schurity import aut_order, color


def dihedral(n):
    shift = tuple((x + 1) % n for x in range(n))
    neg = tuple((-x) % n for x in range(n))
    return PermGroup(n, [shift, neg])


d4 = dihedral(4)
print(f"Delta_1 = Delta_0 = dihedral on Z_4, order {d4.order()}")

G = perm_gen_wreath(d4, d4, 2)
print(f"wreath product on Z_8: order {G.order()}")
for g in G.generators:
    print(f"  generator {g}")

A = gen_wreath(cyclotomic(k_m(4)), cyclotomic(k_m(4)), 2)
print(f"\nmatching S-ring over Z_8: {[list(c) for c in A.classes]}")

aut = automorphism_group(A)
print(f"aut(A) order: {aut.order()}")

ok = all(
    color(A, x, y) == color(A, g[x], g[y])
    for g in G.generators
    for x in range(8)
    for y in range(8)
)
print(f"every wreath generator preserves the colors: {ok}")
print(f"wreath product inside aut(A): {all(g in aut for g in G.generators)}")

evens = [x for x in range(2, 36, 2) if x != 18]
B = validate(36, [[0], [18], evens, list(range(1, 36, 2))])
d1 = automorphism_group(restrict(B, 18))  # on U = 2Z_36, relabeled Z_18
d0 = automorphism_group(quotient(B, 2))  # on Z_36 / {0, 18}, relabeled Z_18
H = perm_gen_wreath(d1, d0, 2)
section = PermGroup(9, [tuple(g[z] % 9 for z in range(9)) for g in d1.generators])
print(f"\nS-ring over Z_36 with class sizes {[len(c) for c in B.classes]}")
print(f"section group of Delta_1 on U/L = Z_9: order {section.order()} (9! = 362880)")
print(f"wreath product of the section groups: order {H.order()}")
print(f"it is all of aut(B): {H.order() == aut_order(B)}")
