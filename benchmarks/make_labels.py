"""Regenerate data/hard_labels.txt, the expected prefilter verdicts of the
survey_hard region.

For every odd n in [2401, 3000) with n = +-1 (mod 8) and every even s with
n > 3s, the label is the smallest degree d <= 13 of an irreducible factor
of the (n, s) pentanomial, or 0 when it has none (a prefilter survivor,
which the survey settles with the full irreducibility test).  The labels
are computed here without the library: squaring is bit interleaving,
reduction uses X^n = X^(n-s) + X^(n-2s) + X^(n-3s) + 1, and the gcd is the
textbook one.  A factor of degree d divides X^(2^d) - X, so the smallest d
with gcd(X^(2^d) - X, p) != 1 is the smallest factor degree.

    python3 benchmarks/make_labels.py [--jobs 2]

One line per column: ``n`` then one character per even s = 2, 4, ...,
the label in base 36.
"""

from __future__ import annotations

import argparse
from concurrent.futures import ProcessPoolExecutor

from workloads import HARD_LABELS, PREFILTER_DEPTH, gf2_gcd

N_LO, N_HI = 2401, 3000


def hard_columns() -> list[int]:
    return [n for n in range(N_LO, N_HI) if n % 8 in (1, 7)]


def _square(a: int) -> int:
    return int("0".join(format(a, "b")), 2)


def _reduce(a: int, n: int, s: int) -> int:
    mask = (1 << n) - 1
    while a >> n:
        h = a >> n
        a = (a & mask) ^ (h << (n - s)) ^ (h << (n - 2 * s)) ^ (h << (n - 3 * s)) ^ h
    return a


def smallest_factor_degree(n: int, s: int) -> int:
    p = (1 << n) | (1 << (n - s)) | (1 << (n - 2 * s)) | (1 << (n - 3 * s)) | 1
    h = 2
    for d in range(1, PREFILTER_DEPTH + 1):
        h = _reduce(_square(h), n, s)
        if gf2_gcd(p, h ^ 2) != 1:
            return d
    return 0


def column_labels(n: int) -> str:
    return "".join(
        "0123456789abcdefghijklmnopqrstuvwxyz"[smallest_factor_degree(n, s)]
        for s in range(2, (n - 1) // 3 + 1, 2)
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    cols = hard_columns()
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        lines = [f"{n} {labels}\n" for n, labels in zip(cols, pool.map(column_labels, cols))]
    HARD_LABELS.write_text("".join(lines))


if __name__ == "__main__":
    main()
