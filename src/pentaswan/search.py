"""Exhaustive survey of equally gapped pentanomials over (n, s) ranges.

The pipeline is: enumerate shapes in deterministic (n, s) order, classify
each one, and aggregate statistics.  Classification runs the closed-form
prune (Theorem 1), the square short-circuit, one root test over GF(2^d)
(d <= 13, or d <= 19 at n >= 1000), then, for even s, the decimation
certificate (``swan.decimation_reducible``, one modular power), and last
the squarefree gcd plus Berlekamp's rank.  None of these calls another.
A root at d <= 13 is a ``red_smallfac`` row; a root at d = 14..19, or a
survivor that the certificate or the rank calls reducible, is ``red_full``.
Classification of distinct shapes is embarrassingly parallel: shapes go to
a process pool in fixed-size chunks, and the output order comes from the
ordered map, so it never depends on the worker count.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from functools import partial
from typing import BinaryIO, Iterable, Iterator, TextIO

from . import gf2poly, swan
from ._pool import pool_map
from .gf2poly import PentShape, ShapeError
from .zpoly import ConsistencyError

__all__ = [
    "ARBITRARY_POLY_BASELINE",
    "CSV_HEADER",
    "OUTCOMES",
    "SearchRecord",
    "classify_shape",
    "enumerate_shapes",
    "read_csv",
    "resume_point",
    "stats",
    "survey",
    "write_csv",
]

# outcome tokens, as they appear in the CSV output
IRREDUCIBLE = "irr"
REDUCIBLE_THM1 = "red_thm1"
REDUCIBLE_SQUARE = "red_square"
REDUCIBLE_SMALL_FACTOR = "red_smallfac"
REDUCIBLE_FULL_TEST = "red_full"
ERROR = "error"

OUTCOMES = (
    IRREDUCIBLE,
    REDUCIBLE_THM1,
    REDUCIBLE_SQUARE,
    REDUCIBLE_SMALL_FACTOR,
    REDUCIBLE_FULL_TEST,
    ERROR,
)

CSV_HEADER = ("n", "s", "outcome", "elapsed_us")

# reported irreducibility frequency among arbitrary binary polynomials of
# comparable degree (excluding those with roots in GF(2)); comparison
# constant only, not recomputed here
ARBITRARY_POLY_BASELINE = 0.0013

# shapes per pool task: few enough that the costly top columns of a range
# spread over the workers, enough that dispatch stays cheap (over n in
# [7, 501) at jobs=2, chunks of 16 ran about 20% slower than chunks of 64)
_SHAPES_PER_TASK = 64

_DEEP_ROOT_MIN_N = 1000  # the root test to d = ROOT_DEPTH pays for its rows from here on


@dataclass(frozen=True)
class SearchRecord:
    """One classified (n, s) shape.  ``factor_bound`` is the degree at
    which the small-factor prefilter hit, for red_smallfac outcomes;
    ``message`` names the exception behind an error outcome."""

    n: int
    s: int
    outcome: str
    elapsed_us: int = 0
    factor_bound: int | None = None
    message: str | None = None


def enumerate_shapes(
    n_lo: int, n_hi: int, s_parity: str = "even", n_parity: str = "odd"
) -> Iterator[PentShape]:
    """All valid shapes with n_lo <= n < n_hi, ascending in (n, s).

    ``s_parity`` selects even or odd gap; ``n_parity`` is "odd" to restrict
    to odd degrees or "all".  An empty range yields nothing.  Bad arguments
    raise here, before any shape is drawn.
    """
    if s_parity not in ("even", "odd"):
        raise ValueError("s_parity must be 'even' or 'odd'")
    if n_parity not in ("odd", "all"):
        raise ValueError("n_parity must be 'odd' or 'all'")
    if n_lo < 7:
        raise ValueError("n_lo must be at least 7")
    s_start = 2 if s_parity == "even" else 1
    return (
        PentShape(n, s)
        for n in range(n_lo, n_hi)
        if n_parity == "all" or n % 2
        for s in range(s_start, (n - 1) // 3 + 1, 2)
    )


def _pruned(shape: PentShape, prune: bool) -> bool:
    """Whether ``prune`` settles the shape as red_thm1, with no test run;
    ``cli`` checks kept rows against it on ``search --resume``."""
    return prune and shape.s % 2 == 0 and swan.thm1_reducible(shape)


def classify_shape(shape: PentShape, prune: bool = True) -> tuple[str, int | None]:
    """Classify one shape; returns (outcome, prefilter factor bound)."""
    n, s = shape.n, shape.s
    if _pruned(shape, prune):
        return REDUCIBLE_THM1, None
    if n % 2 == 0 and s % 2 == 0:
        # every exponent even: the polynomial is a perfect square
        return REDUCIBLE_SQUARE, None
    p = gf2poly.pent_poly(shape).bits
    depth = gf2poly.ROOT_DEPTH if n >= _DEEP_ROOT_MIN_N else gf2poly.PREFILTER_DEPTH
    d = gf2poly._smallest_factor_degree_le(p, depth)
    if d is None:
        # the decimation certificate, then the rank; n is odd when s is even
        # here, as the even-n shapes returned as squares
        if (s % 2 == 0 and swan.decimation_reducible(shape)
                or not gf2poly._survivor_is_irreducible(p)):
            return REDUCIBLE_FULL_TEST, None
    elif d < n:
        # a root at d = 14..19 (so n >= 1000) is a factor, but no small one
        if d <= gf2poly.PREFILTER_DEPTH:
            return REDUCIBLE_SMALL_FACTOR, d
        return REDUCIBLE_FULL_TEST, None
    # irreducible: the prefilter found p itself (d = n <= 13), or the rank did
    if s % 2 == 0 and swan.thm1_reducible(shape):
        # the even-s closed form forbids this residue; finding one
        # irreducible here would mean the theory or the test is broken
        raise ConsistencyError(
            f"irreducible (n={n}, s={s}) with n = {n % 8} (mod 8)"
        )
    return IRREDUCIBLE, None


def _classify_timed(ns: tuple[int, int], prune: bool):
    t0 = time.perf_counter_ns()
    message = None
    try:
        outcome, bound = classify_shape(PentShape(ns[0], ns[1]), prune)
    except Exception as e:  # anomalies become records, never abort the run
        outcome, bound, message = ERROR, None, f"{type(e).__name__}: {e}"
    return ns[0], ns[1], outcome, (time.perf_counter_ns() - t0) // 1000, bound, message


def survey(
    shapes: Iterable[PentShape],
    prune: bool = True,
    jobs: int | None = 1,
) -> Iterator[SearchRecord]:
    """Classify every shape, yielding records in input order.

    ``jobs`` > 1 classifies chunks of shapes in a process pool; the output
    order and contents are independent of the worker count (only elapsed_us
    varies).  ``jobs=None`` uses all cores.
    """
    classify = partial(_classify_timed, prune=prune)
    rows = pool_map(classify, ((sh.n, sh.s) for sh in shapes), jobs, _SHAPES_PER_TASK)
    return (SearchRecord(*row) for row in rows)


def stats(records: Iterable[SearchRecord]) -> dict:
    """The report that ``pentaswan stats`` prints: records and mean
    elapsed_us per outcome, mod-8 histograms of n and s over the
    irreducible records (keyed "0" to "7"), the distinct n among them, and
    the totals, the error count and the irreducibility frequency among
    everything checked (error records included)."""
    n_hist = {r: 0 for r in range(8)}
    s_hist = {r: 0 for r in range(8)}
    irr_ns: set[int] = set()
    outcomes: dict[str, tuple[int, int]] = {}
    for rec in records:
        count, us = outcomes.get(rec.outcome, (0, 0))
        outcomes[rec.outcome] = (count + 1, us + rec.elapsed_us)
        if rec.outcome == IRREDUCIBLE:
            n_hist[rec.n % 8] += 1
            s_hist[rec.s % 8] += 1
            irr_ns.add(rec.n)
    total = sum(count for count, _ in outcomes.values())
    irreducible = outcomes.get(IRREDUCIBLE, (0, 0))[0]
    return {
        "total_checked": total,
        "total_irreducible": irreducible,
        "n_mod8": {str(r): count for r, count in n_hist.items()},
        "s_mod8": {str(r): count for r, count in s_hist.items()},
        "distinct_n_with_irr": len(irr_ns),
        "errors": outcomes.get(ERROR, (0, 0))[0],
        "frequency": irreducible / total if total else 0.0,
        "arbitrary_poly_baseline": ARBITRARY_POLY_BASELINE,
        "outcomes": {
            outcome: {"count": count, "mean_us": us / count}
            for outcome, (count, us) in outcomes.items()
        },
    }


# ---------------------------------------------------------------------------
# flat-file round trips
# ---------------------------------------------------------------------------

def write_csv(records: Iterable[SearchRecord], out: TextIO, header: bool = True) -> int:
    """Write the survey CSV (header n,s,outcome,elapsed_us, left out when
    appending to a file that has it); returns rows."""
    w = csv.writer(out)
    if header:
        w.writerow(CSV_HEADER)
    count = 0
    for rec in records:
        w.writerow((rec.n, rec.s, rec.outcome, rec.elapsed_us))
        count += 1
    return count


def _csv_record(row: list[str]) -> SearchRecord:
    # ASCII digits only: int() also takes "1_1", "+9", " 5" and other scripts'
    # digits; with no sign allowed, elapsed_us >= 0 holds
    if (len(row) == len(CSV_HEADER) and row[2] in OUTCOMES
            and all(f.isascii() and f.isdigit() for f in row[:2] + row[3:])):
        rec = SearchRecord(int(row[0]), int(row[1]), row[2], int(row[3]))
        try:
            PentShape(rec.n, rec.s)
            return rec
        except ShapeError:
            pass
    raise ValueError(f"expected {len(CSV_HEADER)} fields with integer n,s,elapsed_us with "
                     f"n >= 7, s >= 1, n > 3s, elapsed_us >= 0 and an outcome in "
                     f"{','.join(OUTCOMES)}: {','.join(row)}")


def _check_csv_header(header: list[str] | None) -> None:
    if header is None or tuple(header) != CSV_HEADER:
        raise ValueError(f"expected CSV header {','.join(CSV_HEADER)}")


def read_csv(src: TextIO) -> list[SearchRecord]:
    r = csv.reader(src)
    _check_csv_header(next(r, None))
    return [_csv_record(row) for row in r]


def resume_point(src: BinaryIO) -> tuple[int | None, int, list[SearchRecord]]:
    """Where to resume the interrupted run whose CSV output ``src`` holds:
    (restart, offset, kept).

    ``restart`` is the largest n among the complete rows, or None when there
    are none; that column may be partial, so it is redone.  ``offset`` is
    the byte offset of its first row: truncating the file there drops that
    column and a torn last line (a kill during a write can leave one without
    its newline), and the run appends.  ``kept`` holds the records before.
    """
    rows: list[tuple[int, str]] = []  # (byte offset, text) of complete lines
    offset = 0
    for raw in src:
        if not raw.endswith(b"\n"):
            break
        rows.append((offset, raw.decode()))
        offset += len(raw)
    if not rows:
        return None, 0, []
    _check_csv_header(next(csv.reader([rows.pop(0)[1]])))
    records = [_csv_record(next(csv.reader([text]))) for _, text in rows]
    restart = max((rec.n for rec in records), default=None)
    if restart is None:
        return None, 0, []
    first = next(i for i, rec in enumerate(records) if rec.n == restart)
    return restart, rows[first][0], records[:first]
