"""Which cyclic group orders admit only schurian S-rings?

An order n is "good" exactly when it matches one of five literal shapes
(p^k, pq^k, 2pq^k, pqr, 2pqr with distinct primes, 2 allowed among
them).  Equivalently -- and this is the point of the classification --
n is bad exactly when it splits into coprime parts n1 * n2 with
omega_star >= 2 on both sides, where omega_star counts prime factors
after halving even numbers.  This script walks both formulations.
"""

from schurring import classify, omega_star
from schurring.arith import equivalence_violations

print("The five families, matched literally:")
for n in (7, 16, 24, 30, 60, 210):
    print(f"  {n:4d} -> {sorted(classify(n).families)}")

print("\nOrders with no family match have a coprime split instead:")
for n in (72, 144, 200, 2376):
    n1, n2 = classify(n).nonschur_split
    print(
        f"  {n:4d} = {n1} * {n2}   "
        f"(omega_star = {omega_star(n1)}, {omega_star(n2)})"
    )

print("\nThe smallest bad order:")
first = next(n for n in range(1, 100) if not classify(n).is_schur)
print(f"  {first} (split {classify(first).nonschur_split})")

print("\nCross-checking both formulations on every n <= 50000 ...")
bad = equivalence_violations(50000)
print(f"  disagreements: {bad if bad else 'none'}")
