"""Building the non-schurian witness ring over Z_72.

The construction glues four cyclotomic rings with generalized wreath
products: orders 8 and 9 are each factored (8 = 4*2 forces the special
branch with a = b = 4), four rings over Z_12 are wreathed pairwise into
rings over Z_24 and Z_27... more precisely over Z_{ac}, Z_{bc}, Z_{ad},
Z_{bd}, and the two halves are glued along a common order-8 section.
The resulting partition of Z_72 satisfies every S-ring axiom, yet no
permutation group realizes it: one stabilizer orbit of its full color
automorphism group splits a basic set.
"""

from schurring import (
    is_schurian,
    minimal_nonschurian_check,
    witness_detailed,
)
from schurring.sring import wreath_decompositions

w = witness_detailed(8, 9)
print(f"witness over Z_{w.ring.n}: branch={w.branch}, "
      f"(a,b,c,d)=({w.a},{w.b},{w.c},{w.d}), rank={w.ring.rank}")
print("basic sets:")
for c in w.ring.classes:
    print(f"  {list(c)}")

print("\nproper wreath decompositions (u, l):", wreath_decompositions(w.ring))

v = is_schurian(w.ring)
print(f"\nschurian: {v.schurian}")
print(f"color automorphism group order: {v.aut_order}")
print(f"stabilizer orbits: {len(v.stabilizer_orbits)} vs rank {w.ring.rank}")
orb, cls = v.witness_mismatch
print(f"orbit {list(orb)} is a proper subset of class {list(w.ring.classes[cls])}")

print("\nevery proper section ring is schurian:",
      minimal_nonschurian_check(w.ring))
