"""Regenerate data/bridge_costs.txt, the cost classes of the disc_bridge
region.

For every n in [40, 300) and every s with n > 3s, the class is '.' when the
(n, s) pentanomial is not squarefree, and otherwise the time the bridge
takes on it (discriminant_mod8 of the lift plus brute_force_parity), on a
log scale: class c means about 1.17^c ms, capped at 35.  The resultant's
cost jumps by 10x between neighbouring s of one n, so disc_bridge draws
its rounds from strata of shapes of like cost, which keeps the cost of a
round, and of a run, nearly the same for every seed.  The classes only
shape the strata: no verdict depends on them, and a library that gets
faster leaves them valid as long as it does not reorder the shapes' costs
wholesale.

    python3 benchmarks/make_costs.py [--jobs 2]

One line per n: ``n`` then one character per s = 1, 2, ..., the class in
base 36.
"""

from __future__ import annotations

import argparse
import math
import time
from concurrent.futures import ProcessPoolExecutor

from workloads import BRIDGE_COSTS, Library, shape_squarefree

N_LO, N_HI = 40, 300
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def bridge_ms(lib, n: int, s: int) -> float:
    gf2poly, zpoly, swan = lib.gf2poly, lib.zpoly, lib.swan
    p = gf2poly.pent_poly(gf2poly.PentShape(n, s))
    t = time.perf_counter()
    swan.parity_from_discriminant(n, zpoly.discriminant_mod8(zpoly.lift(p)))
    swan.brute_force_parity(p)
    return (time.perf_counter() - t) * 1e3


def column_classes(n: int) -> str:
    lib = Library()
    out = []
    for s in range(1, (n - 1) // 3 + 1):
        if not shape_squarefree(n, s):
            out.append(".")
            continue
        ms = bridge_ms(lib, n, s)
        out.append(DIGITS[min(35, max(0, round(math.log(ms) / math.log(1.17))))])
    return "".join(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    cols = list(range(N_LO, N_HI))
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        lines = [f"{n} {c}\n" for n, c in zip(cols, pool.map(column_classes, cols))]
    BRIDGE_COSTS.write_text("".join(lines))


if __name__ == "__main__":
    main()
