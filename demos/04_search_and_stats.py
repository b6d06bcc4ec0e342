"""A desk-scale slice of the exhaustive search.

Enumerate every (n, s) with odd n below 200 and even s, classify each
pentanomial (closed-form certificate first, then a small-factor prefilter,
then the full irreducibility test for survivors), and aggregate.  The
certificate disposes of roughly half the shapes without touching a single
polynomial coefficient.
"""

from pentaswan import enumerate_shapes, stats, survey

records = list(survey(enumerate_shapes(7, 200), jobs=None))
agg = stats(records)

print("outcome breakdown:")
for outcome, tally in sorted(agg["outcomes"].items(), key=lambda item: -item[1]["count"]):
    print(f"  {outcome:>12}: {tally['count']}")

print()
print("irreducible pairs (n, s):")
irr = [(r.n, r.s) for r in records if r.outcome == "irr"]
for n in sorted({n for n, _ in irr}):
    print(f"  {n:>4}: {sorted(s for m, s in irr if m == n)}")

print()
print(f"checked {agg['total_checked']}, irreducible {agg['total_irreducible']} "
      f"({100 * agg['frequency']:.2f}%)")
print(f"n mod 8 histogram (irreducibles): { {int(k): v for k, v in agg['n_mod8'].items() if v} }")
print(f"s mod 8 histogram (irreducibles): { {int(k): v for k, v in agg['s_mod8'].items() if v} }")
print()
print("every irreducible lands on n = 1 or 7 (mod 8), as the closed form demands.")
