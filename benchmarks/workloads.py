"""The four benchmark workloads, their seeded inputs and correctness gates.

Each workload splits its work into rounds.  A round is the workload's unit
of work, drawn from the seed with a fixed composition, so that rounds of
one seed and runs of different seeds cost about the same and the median
over rounds is steady.  ``run_round`` is the timed call into the library;
``check`` is untimed and compares what came back with an expected answer
that the library did not compute.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import random
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
TABLE2 = ROOT / "tests" / "data" / "table2.csv"
HARD_LABELS = Path(__file__).resolve().parent / "data" / "hard_labels.txt"
BRIDGE_COSTS = Path(__file__).resolve().parent / "data" / "bridge_costs.txt"

OUTCOMES = ("irr", "red_thm1", "red_square", "red_smallfac", "red_full", "error")
PREFILTER_DEPTH = 13
SUITES = ("parity", "thm1", "disc", "trinomial", "powersum")


class Library:
    """The pentaswan modules the benchmark drives, freshly imported from
    ``src`` of this checkout."""

    def __init__(self):
        src = str(ROOT / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        for name in [m for m in sys.modules if m == "pentaswan" or m.startswith("pentaswan.")]:
            del sys.modules[name]
        self.pentaswan = importlib.import_module("pentaswan")
        if not Path(self.pentaswan.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"pentaswan imported from {self.pentaswan.__file__}, not {src}")
        for name in ("gf2poly", "zpoly", "swan", "search", "verify", "cli"):
            setattr(self, name, importlib.import_module(f"pentaswan.{name}"))


def load_reference() -> set[tuple[int, int]]:
    """Known irreducible (n, s) pairs; the table is complete for n < 3000."""
    with open(TABLE2, newline="") as f:
        return {(int(r["n"]), int(r["s"])) for r in csv.DictReader(f)}


def even_s_count(n: int) -> int:
    """Number of even s with n > 3s: the census of one column."""
    return (n - 1) // 3 // 2


@dataclass
class RoundStats:
    """What one round did, as checked after it ran."""

    items: int = 0
    attempted: int = 0
    errors: int = 0
    verdicts: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    sums: Counter = field(default_factory=Counter)
    shape_ms: list[float] = field(default_factory=list)
    # (calls, wall s, CPU s) of the host_reference calls interleaved in the round
    host_time: tuple[int, float, float] | None = None


def _count_records(stats: RoundStats, timed_records) -> None:
    """Tally (SearchRecord, ms) pairs: outcomes, prefilter hit degrees, the
    per-shape times and the (n, s, irreducible?) verdict stream."""
    for rec, ms in timed_records:
        stats.sums[f"outcome.{rec.outcome}.count"] += 1
        stats.sums[f"outcome.{rec.outcome}.ms"] += ms
        stats.sums["busy_ms"] += ms
        stats.shape_ms.append(ms)
        if rec.factor_bound is not None:
            stats.sums[f"bound.d{rec.factor_bound}"] += 1
        stats.verdicts.append(f"{rec.n},{rec.s},{int(rec.outcome == 'irr')}")
        stats.items += 1
        stats.attempted += 1
    stats.errors = stats.sums["outcome.error.count"]


REFERENCE_NOMINAL_S = 1e-3


def host_reference() -> list[int]:
    """A fixed piece of big-integer work, written in the benchmark so that
    no change to the library moves it: the fraction-free subresultant
    sequence of F and 70*F - X*F' for the (70, 17) pentanomial lifted to
    Z.  It takes about REFERENCE_NOMINAL_S on an unloaded 2-vCPU x86-64
    host.

    The host's speed drifts by up to 2x over tens of seconds.  The
    workloads that run in this process, survey_hard and disc_bridge, call it
    once after each item, untimed, and run.py scales each round's time by
    nominal over measured reference time.  Interleaved item by item, its
    time tracks the bridge's within about 5%."""
    n, s = 70, 17
    a = [0] * (n + 1)
    for e in (n, n - s, n - 2 * s, n - 3 * s, 0):
        a[e] = 1
    b = [(n - i) * c for i, c in enumerate(a)]
    while not b[-1]:
        b.pop()
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        r = list(a)
        for top in range(len(a) - 1, len(b) - 2, -1):
            lead = r[top]
            for i in range(top):
                r[i] *= b[-1]
            off = top - len(b) + 1
            for i in range(len(b) - 1):
                r[off + i] -= lead * b[i]
            r[top] = 0
        while r and not r[-1]:
            r.pop()
        d = g * h ** delta
        a, b = b, [c // d for c in r]
        g = a[-1]
        if delta:
            h = g ** delta if h == 1 else g ** delta // h ** (delta - 1)
    return b


def timed_reference() -> tuple[float, float]:
    """One host_reference call; its wall and CPU seconds."""
    t, c = time.perf_counter(), time.process_time()
    host_reference()
    return time.perf_counter() - t, time.process_time() - c


def host_time_totals(refs: list[tuple[float, float]]) -> tuple[int, float, float]:
    return len(refs), sum(w for w, _ in refs), sum(c for _, c in refs)


def equal_bins(items: list, count: int) -> list[list]:
    """``count`` consecutive slices of ``items`` of equal size; the last
    ``len(items) % count`` items are left out."""
    width = len(items) // count
    return [items[b * width:(b + 1) * width] for b in range(count)]


class SurveyHard:
    """search.survey(jobs=1) on even-s shapes with n = +-1 (mod 8) in
    [2401, 3000), where no closed form prunes.  A round holds one prefilter
    survivor from each of ``bins`` equal-size bins of survivors ordered by
    n (a survivor's full test costs more as n grows), plus prefilter hits in
    the region's proportion, one from each equal-size bin of hits ordered by
    the factor degree that retires them (a hit costs more as it grows).
    The expected verdict of every shape is known beforehand: hits from
    data/hard_labels.txt, survivors from table2.csv.  Each record the survey
    yields is followed by one untimed host_reference call."""

    name = "survey_hard"
    jobs = 1
    trace_rounds = 4

    def __init__(self, lib, reference, seed: int, tiny: bool = False):
        self.lib = lib
        self.labels: dict[tuple[int, int], int] = {}
        with open(HARD_LABELS) as f:
            for line in f:
                n_text, column = line.split()
                n = int(n_text)
                for i, ch in enumerate(column):
                    self.labels[(n, 2 * i + 2)] = int(ch, 36)
        self.reference = {k for k in reference if k in self.labels}
        shapes = sorted(self.labels)
        if tiny:
            shapes = [(n, s) for n, s in shapes if 4 * s > n]
        survivors = [k for k in shapes if self.labels[k] == 0]
        hits = [k for k in shapes if self.labels[k] != 0]
        hits.sort(key=lambda k: (self.labels[k], k))
        bins = 2 if tiny else 8
        per_round_hits = round(bins * len(hits) / len(survivors))
        strata = equal_bins(survivors, bins) + equal_bins(hits, per_round_hits)
        rng = random.Random(seed)
        self.rounds = [sorted(rng.choice(stratum) for stratum in strata) for _ in range(64)]

    def run_round(self, shapes, jobs):
        PentShape = self.lib.gf2poly.PentShape
        records, timed, refs = [], [], []
        clock = time.perf_counter
        stream = self.lib.search.survey((PentShape(n, s) for n, s in shapes), jobs=1)
        t = clock()
        for rec in stream:
            timed.append((clock() - t) * 1e3)
            records.append(rec)
            refs.append(timed_reference())
            t = clock()
        return records, timed, refs

    def check(self, shapes, out) -> RoundStats:
        records, timed, refs = out
        stats = RoundStats(host_time=host_time_totals(refs))
        _count_records(stats, zip(records, timed))
        if [(r.n, r.s) for r in records] != list(shapes):
            stats.failures.append(f"{len(records)} rows for {len(shapes)} shapes")
        for rec in records:
            if rec.outcome == "error":
                continue
            label = self.labels[(rec.n, rec.s)]
            if label:
                expected = ("red_smallfac", label)
            elif (rec.n, rec.s) in self.reference:
                expected = ("irr", None)
            else:
                expected = ("red_full", None)
            if (rec.outcome, rec.factor_bound) != expected:
                stats.failures.append(
                    f"({rec.n}, {rec.s}): {rec.outcome}/{rec.factor_bound}, expected {expected}"
                )
        return stats


class SurveyWide:
    """The CLI path: ``search --jobs 2 --out`` then ``stats`` on the file,
    over every odd n in [7, hi).  Each round splits the range at a seeded
    odd n into two contiguous windows, so the windows move with the seed
    while the total work stays fixed."""

    name = "survey_wide"
    jobs = 2
    trace_rounds = 2

    def __init__(self, lib, reference, seed: int, tiny: bool = False):
        self.lib = lib
        self.hi = 101 if tiny else 501
        self.reference = {(n, s) for n, s in reference if n < self.hi}
        rng = random.Random(seed)
        self.rounds = [
            ((7, split), (split, self.hi))
            for split in (rng.randrange(9, self.hi - 1, 2) for _ in range(64))
        ]

    def run_round(self, windows, jobs):
        OUT_DIR.mkdir(exist_ok=True)
        out = []
        for lo, hi in windows:
            path = OUT_DIR / f"wide-{lo}-{hi}.csv"
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                code = self.lib.cli.main(["search", "--n-min", str(lo), "--n-max", str(hi),
                                          "--jobs", str(jobs), "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"search exited {code}: {sink.getvalue()}")
            report = io.StringIO()
            t = time.perf_counter()
            with redirect_stdout(report):
                code = self.lib.cli.main(["stats", str(path)])
            stats_s = time.perf_counter() - t
            if code != 0:
                raise RuntimeError(f"stats exited {code}")
            out.append((lo, hi, path, report.getvalue(), stats_s))
        return out

    def check(self, windows, out) -> RoundStats:
        stats = RoundStats()
        for lo, hi, path, report, stats_s in out:
            stats.sums["csv_bytes"] += path.stat().st_size
            with open(path, newline="") as f:
                rows = list(csv.reader(f))[1:]
            path.unlink()
            records = [self.lib.search.SearchRecord(int(n), int(s), o, int(us)) for n, s, o, us in rows]
            stats.sums["stats_s"] += stats_s
            stats.sums["stats_calls"] += 1
            _count_records(stats, ((r, r.elapsed_us / 1e3) for r in records))
            census = sum(even_s_count(n) for n in range(lo, hi, 2))
            if len(records) != census:
                stats.failures.append(f"[{lo}, {hi}): {len(records)} rows, census {census}")
            ok = [r for r in records if r.outcome != "error"]
            found = {(r.n, r.s) for r in ok if r.outcome == "irr"}
            expected = {(n, s) for n, s in self.reference if lo <= n < hi}
            if found != expected & {(r.n, r.s) for r in ok}:
                stats.failures.append(f"[{lo}, {hi}): irreducibles differ from table2")
            thm1 = [r for r in ok if (r.outcome == "red_thm1") != (r.n % 8 in (3, 5))]
            if thm1:
                stats.failures.append(f"red_thm1 off the n = +-3 (mod 8) columns: {thm1[0]}")
            summary = json.loads(report)
            if (summary["total_checked"], summary["total_irreducible"]) != (len(records), len(found)):
                stats.failures.append(f"stats report disagrees with the file: {summary}")
        return stats


class VerifySuites:
    """verify.run_all at reduced bounds with jobs=2.  The suites are fixed
    sweeps: the seed is recorded but does not change the inputs."""

    name = "verify_suites"
    jobs = 2
    trace_rounds = 2
    functions = {
        "parity": "pent_parity_agreement",
        "thm1": "thm1_soundness",
        "disc": "discriminant_agreement",
        "trinomial": "trinomial_agreement",
        "powersum": "power_sum_identities",
    }

    def __init__(self, lib, reference, seed: int, tiny: bool = False):
        self.lib = lib
        if tiny:
            b = dict(parity_max=41, thm1_max=41, disc_max=21, trinomial_max=31,
                     powersum_max=31, pair_max=21)
        else:
            b = dict(parity_max=181, thm1_max=241, disc_max=45, trinomial_max=111,
                     powersum_max=121, pair_max=81)
        self.bounds = b
        # closed-form case counts (the C1, C2, C5, C6 and C7 censuses)
        self.expected = {
            "parity": sum(even_s_count(n) for n in range(7, b["parity_max"], 2)),
            "thm1": sum(even_s_count(n) for n in range(7, b["thm1_max"])
                        if n % 2 == 0 or n % 8 in (3, 5)),
            "disc": sum(even_s_count(n) for n in range(7, b["disc_max"] + 1, 2)),
            "trinomial": sum(n // 2 for n in range(2, b["trinomial_max"] + 1)),
            "powersum": sum(even_s_count(n) for n in range(7, b["powersum_max"], 2)),
        }
        self.rounds = [None]

    def run_round(self, _, jobs):
        verify = self.lib.verify
        walls = {}

        def timed(suite, fn):
            def call(*args, **kwargs):
                t = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    walls[suite] = time.perf_counter() - t
            return call

        saved = {attr: getattr(verify, attr) for attr in self.functions.values()}
        try:
            for suite, attr in self.functions.items():
                setattr(verify, attr, timed(suite, saved[attr]))
            try:
                results = verify.run_all(**self.bounds, jobs=jobs)
            except Exception as e:  # an error, not a wrong answer
                return None, repr(e)
        finally:
            for attr, fn in saved.items():
                setattr(verify, attr, fn)
        return results, walls

    def check(self, _, out) -> RoundStats:
        results, walls = out
        stats = RoundStats()
        stats.attempted = sum(self.expected.values())
        if results is None:
            stats.errors = stats.attempted
            return stats
        for suite, r in zip(SUITES, results):
            stats.items += r.checked
            stats.sums[f"verify.{suite}.wall_s"] += walls[suite]
            stats.sums[f"verify.{suite}.checked"] += r.checked
            stats.verdicts.append(f"{suite},{r.checked},{int(r.ok)}")
            if not r.ok:
                stats.failures.append(r.summary())
            if r.checked != self.expected[suite]:
                stats.failures.append(
                    f"{suite}: checked {r.checked}, closed form {self.expected[suite]}")
        return stats


def gf2_gcd(a: int, b: int) -> int:
    """gcd of bit-packed polynomials over GF(2), written apart from the
    library so that it can check it."""
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def shape_squarefree(n: int, s: int) -> bool:
    """gcd(p, p') = 1 for the (n, s) pentanomial, without the library."""
    exps = (n, n - s, n - 2 * s, n - 3 * s, 0)
    p = sum(1 << e for e in exps)
    dp = sum(1 << (e - 1) for e in exps if e % 2)
    return dp != 0 and gf2_gcd(p, dp) == 1


class DiscBridge:
    """Swan's bridge on random shapes with either parity of n and s: for a
    squarefree pentanomial p of degree n, parity_from_discriminant(n,
    discriminant_mod8(lift(p))) must equal brute_force_parity(p).  The
    exact resultant's cost jumps tenfold between neighbouring shapes, so the
    seed draws one squarefree shape from each of 64 strata of like cost:
    the squarefree shapes of n in [100, 300), sorted by their cost class in
    data/bridge_costs.txt and cut into equal slices.  Non-squarefree shapes
    join in the region's proportion and are counted and skipped.
    Squarefreeness comes from the benchmark's own gcd, when the cost table
    is made; the library's is_squarefree must agree.

    Each shape is followed by one untimed host_reference call, so that the
    round's time can be scaled to the host's nominal speed."""

    name = "disc_bridge"
    jobs = 1
    trace_rounds = 2

    def __init__(self, lib, reference, seed: int, tiny: bool = False):
        self.lib = lib
        lo, hi, count = (40, 80, 4) if tiny else (100, 300, 64)
        squarefree, others = [], []
        with open(BRIDGE_COSTS) as f:
            for line in f:
                n_text, column = line.split()
                n = int(n_text)
                if not lo <= n < hi:
                    continue
                for s, ch in enumerate(column, 1):
                    if ch == ".":
                        others.append((n, s, False))
                    else:
                        squarefree.append((int(ch, 36), (n, s, True)))
        squarefree.sort()
        strata = equal_bins([shape for _, shape in squarefree], count)
        per_round_others = round(count * len(others) / len(squarefree))
        rng = random.Random(seed)
        self.rounds = [
            sorted([rng.choice(stratum) for stratum in strata]
                   + rng.sample(others, per_round_others))
            for _ in range(64)
        ]

    def run_round(self, shapes, jobs):
        gf2poly, zpoly, swan = self.lib.gf2poly, self.lib.zpoly, self.lib.swan
        out = []
        for n, s, _ in shapes:
            try:
                p = gf2poly.pent_poly(gf2poly.PentShape(n, s))
                if not gf2poly.is_squarefree(p):
                    row = (False, None, None)
                else:
                    bridged = swan.parity_from_discriminant(
                        n, zpoly.discriminant_mod8(zpoly.lift(p)))
                    row = (True, bridged.parity, swan.brute_force_parity(p).parity)
            except Exception as e:  # an error, not a wrong answer
                row = (None, repr(e), None)
            out.append(row + (timed_reference(),))
        return out

    def check(self, shapes, out) -> RoundStats:
        stats = RoundStats(attempted=len(shapes), host_time=host_time_totals([r[3] for r in out]))
        for (n, s, squarefree), (observed, bridged, brute, _) in zip(shapes, out):
            if observed is None:
                stats.errors += 1
                continue
            if observed != squarefree:
                stats.failures.append(f"({n}, {s}): is_squarefree says {observed}")
            if not observed:
                stats.sums["skipped_nonsquarefree"] += 1
                continue
            stats.items += 1
            stats.verdicts.append(f"{n},{s},{bridged}")
            if bridged != brute:
                stats.failures.append(f"({n}, {s}): discriminant {bridged}, factor count {brute}")
        return stats


WORKLOADS = {w.name: w for w in (SurveyHard, SurveyWide, VerifySuites, DiscBridge)}
