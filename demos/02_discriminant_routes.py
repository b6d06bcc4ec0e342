"""Three independent routes to the same discriminant residue.

The parity bridge runs through D(F) mod 8, where F is the 0/1 integer lift.
We compute it (a) by the closed form in n mod 8, (b) as the product of
H = n*F - X*F' over the roots of F, which ``discriminant_mod8`` gets by
Swan's reduction to a cubic, taken in Z/8 (the forward cubic here, as n is
odd; even n takes the reciprocal one), and (c) exactly as the classical
resultant against F'.  All three must coincide -- Res(F, H) and
Res(F, F') are equal as full integers, not just mod 8, whenever F(0) = 1.
"""

from pentaswan import (
    PentShape,
    discriminant,
    discriminant_mod8,
    h_poly,
    lift,
    pent_discriminant_closed_form,
    pent_poly,
    resultant,
)

print(f"{'n':>4} {'s':>3} {'closed':>7} {'res(F,H)':>9} {'res(F,F`)':>10}")
for n, s in [(7, 2), (11, 2), (13, 2), (17, 2), (25, 6), (31, 6), (49, 4)]:
    F = lift(pent_poly(PentShape(n, s)))
    a = pent_discriminant_closed_form(PentShape(n, s))
    b = discriminant_mod8(F)
    c = discriminant(F) % 8
    assert a == b == c
    print(f"{n:>4} {s:>3} {a:>7} {b:>9} {c:>10}")

print()
F = lift(pent_poly(PentShape(7, 2)))
print("the exact integers behind (7, 2):")
print("  Res(F, H)  =", resultant(F, h_poly(F)))
print("  Res(F, F') =", resultant(F, F.derivative()))
print("  both = 7 mod 8, and 7 = n: the product of H over the roots is n mod 8.")
