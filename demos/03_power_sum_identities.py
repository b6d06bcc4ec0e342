"""The power-sum identities that collapse the discriminant computation.

S_m is the sum of m-th powers of the roots of the lift F, computed exactly
by Newton's identities (a four-term recurrence here, since F is sparse).
For the pentanomial lift with odd n and even s:

    S_{n-s} = S_{n-2s} = S_{n-3s} = 0
    S_{2n-4s} = 0 (mod 2)
    S_{2n-2s} = S_{2n-6s}, hence T_{n-s} = T_{n-3s}

where T_k sums (a_i * a_j)^k over root pairs.  These force the product of
H(a_i) down to n mod 8.
"""

from pentaswan import PentShape, lift, pent_poly, power_sums, second_power_sums

n, s = 13, 2
F = lift(pent_poly(PentShape(n, s)))
table = power_sums(F, 2 * n - 2 * s)

print(f"S_0..S_{2*n-2*s} of the (n={n}, s={s}) lift:")
print(" ", [table[m] for m in range(2 * n - 2 * s + 1)])
print()

print(f"lift of the (n={n}, s={s}) pentanomial:")
for k in (1, 2, 3):
    print(f"  S_(n-{k}s) = S_{n - k*s} = {table[n - k*s]}")
print(f"  S_(2n-4s) = S_{2*n-4*s} = {table[2*n-4*s]}  (even)")
print(f"  S_(2n-2s) = {table[2*n-2*s]}   S_(2n-6s) = {table[2*n-6*s]}")
print(f"  T_(n-s) = {second_power_sums(table, n - s)}   "
      f"T_(n-3s) = {second_power_sums(table, n - 3*s)}")
