import ast
import hashlib
import importlib.util
import io
import math
import sys
from pathlib import Path

import pytest

import pentaswan
from pentaswan import cli, gf2poly, search, swan, verify, zpoly
from pentaswan.gf2poly import PentShape
from pentaswan.search import (
    CSV_HEADER,
    ERROR,
    IRREDUCIBLE,
    REDUCIBLE_FULL_TEST,
    REDUCIBLE_SMALL_FACTOR,
    REDUCIBLE_SQUARE,
    REDUCIBLE_THM1,
    SearchRecord,
    classify_shape,
    enumerate_shapes,
    read_csv,
    resume_point,
    stats,
    survey,
    write_csv,
)
from pentaswan.search import _SHAPES_PER_TASK


def record_key(r):
    return (r.n, r.s, r.outcome)


# --- enumeration ------------------------------------------------------------

def test_enumerate_smallest_range():
    assert list(enumerate_shapes(7, 8)) == [PentShape(7, 2)]


def test_enumerate_ordering_and_validity():
    shapes = list(enumerate_shapes(7, 60, "even", "odd"))
    assert shapes == sorted(shapes, key=lambda sh: (sh.n, sh.s))
    assert all(sh.n % 2 == 1 and sh.s % 2 == 0 and sh.n > 3 * sh.s for sh in shapes)
    odd_gap = list(enumerate_shapes(7, 60, "odd", "all"))
    assert all(sh.s % 2 == 1 for sh in odd_gap)
    assert {sh.n % 2 for sh in odd_gap} == {0, 1}


def test_enumerate_empty_range_is_empty():
    assert list(enumerate_shapes(9, 9)) == []
    assert list(enumerate_shapes(12, 7)) == []


def test_enumerate_validation():
    # the call itself raises, before a caller acts on the shapes to come
    with pytest.raises(ValueError):
        enumerate_shapes(5, 10)
    with pytest.raises(ValueError):
        enumerate_shapes(7, 10, "both")
    with pytest.raises(ValueError):
        enumerate_shapes(7, 10, "even", "even")


def test_enumerate_census_small():
    # per-column count for odd n is floor(((n-1)/3) / 2)
    for n in (7, 25, 99, 151):
        column = [sh for sh in enumerate_shapes(n, n + 1)]
        assert len(column) == ((n - 1) // 3) // 2


def test_odd_gap_census_discrepancy_documented():
    """The reported odd-gap census of 749,996 over [7, 3000) exceeds the
    count of valid shapes by exactly the 499 degenerate s = n/3 cases
    (3 | n with n/3 odd), where the five exponents collide and the
    'pentanomial' loses its constant term."""
    total = sum(1 for _ in enumerate_shapes(7, 3000, "odd", "all"))
    assert total == 749_497
    degenerate = sum(1 for n in range(7, 3000) if n % 3 == 0 and (n // 3) % 2 == 1)
    assert degenerate == 499
    assert total + degenerate == 749_996


# --- classification -----------------------------------------------------------

def test_classify_certificate_short_circuit():
    assert classify_shape(PentShape(11, 2)) == (REDUCIBLE_THM1, None)
    assert classify_shape(PentShape(10, 2)) == (REDUCIBLE_THM1, None)


def test_classify_square_without_prune():
    assert classify_shape(PentShape(10, 2), prune=False) == (REDUCIBLE_SQUARE, None)


def test_classify_prefilter_records_degree():
    # pent(9, 2) = (X^2+X+1)(X^3+X+1)(X^4+X^3+1): smallest factor degree 2
    outcome, bound = classify_shape(PentShape(9, 2))
    assert outcome == REDUCIBLE_SMALL_FACTOR and bound == 2
    # pent(11, 2) factors into degrees {3, 8}
    outcome, bound = classify_shape(PentShape(11, 2), prune=False)
    assert outcome == REDUCIBLE_SMALL_FACTOR and bound == 3


def test_classify_irreducible_and_full_test():
    assert classify_shape(PentShape(7, 2)) == (IRREDUCIBLE, None)
    # pent(35, 2) has two factors, neither of degree <= 13: a reducible
    # survivor of the prefilter must fall through to the full test
    assert classify_shape(PentShape(35, 2), prune=False) == (REDUCIBLE_FULL_TEST, None)


def test_classify_odd_gap_shapes_skip_certificates():
    outcome, _ = classify_shape(PentShape(13, 3), prune=True)
    assert outcome in (IRREDUCIBLE, REDUCIBLE_SMALL_FACTOR, REDUCIBLE_FULL_TEST)


# --- survey -------------------------------------------------------------------

def known_irreducibles_below_32():
    return {(7, 2), (17, 2), (17, 4), (23, 6), (25, 6), (31, 2), (31, 6), (31, 8)}


def test_survey_reproduces_small_table():
    records = list(survey(enumerate_shapes(7, 32), prune=False))
    found = {(r.n, r.s) for r in records if r.outcome == IRREDUCIBLE}
    assert found == known_irreducibles_below_32()


def test_survey_count_conservation_and_order():
    shapes = list(enumerate_shapes(7, 100))
    records = list(survey(iter(shapes)))
    assert len(records) == len(shapes)
    assert [(r.n, r.s) for r in records] == [(sh.n, sh.s) for sh in shapes]


def test_survey_worker_count_invariance():
    # whole records bar elapsed_us, over many pool tasks
    for s_parity, prune in [("even", True), ("even", False), ("odd", True)]:
        shapes = list(enumerate_shapes(7, 120, s_parity, "all"))

        def records(jobs):
            return [(record_key(r), r.factor_bound, r.message)
                    for r in survey(iter(shapes), prune=prune, jobs=jobs)]

        gf2poly._root_row.cache_clear()
        pooled = [records(2), records(3)]
        # the pools built the prefilter's tables here, before their workers forked
        assert gf2poly._root_row.cache_info().currsize == 276
        seq = records(1)
        assert len(seq) == len(shapes) > 10 * _SHAPES_PER_TASK
        assert pooled == [seq, seq]


def test_serial_survey_pulls_one_shape_per_record():
    # the per-shape timings of a jobs=1 caller rely on this laziness
    pulled = []

    def shapes():
        for sh in enumerate_shapes(7, 40):
            pulled.append(sh)
            yield sh

    for count, rec in enumerate(survey(shapes(), jobs=1), 1):
        assert len(pulled) == count
        assert (rec.n, rec.s) == (pulled[-1].n, pulled[-1].s)
    assert count == len(list(enumerate_shapes(7, 40)))


def test_survey_prune_does_not_change_irreducibles():
    pruned = {record_key(r) for r in survey(enumerate_shapes(7, 200)) if r.outcome == IRREDUCIBLE}
    full = {
        record_key(r)
        for r in survey(enumerate_shapes(7, 200), prune=False)
        if r.outcome == IRREDUCIBLE
    }
    assert pruned == full


def test_survey_no_certified_irreducible_conflict():
    # hard invariant: an irreducible with even s must have n = +-1 (mod 8)
    for r in survey(enumerate_shapes(7, 200)):
        if r.outcome == IRREDUCIBLE and r.s % 2 == 0:
            assert r.n % 8 in (1, 7), r


def test_an_irreducible_the_prefilter_finds_stays_irreducible():
    # for n <= 13 the prefilter finds an irreducible p itself, at d = n
    p = gf2poly.pent_poly(PentShape(7, 2)).bits
    assert gf2poly._smallest_factor_degree_le(p) == 7
    for prune in (True, False):
        assert classify_shape(PentShape(7, 2), prune) == (IRREDUCIBLE, None)


def test_odd_s_survey_never_decimates():
    # gcd(n, s) > 1 with odd s can leave no valid smaller shape, e.g.
    # (20, 5) -> (4, 1) and (54, 9) -> (6, 1), so the certificate is for
    # even s only: these rows come from the rank, and none is an error
    records = list(survey(enumerate_shapes(7, 160, "odd", "all"), prune=False, jobs=1))
    outcomes = {(r.n, r.s): r.outcome for r in records}
    assert outcomes[20, 5] == outcomes[100, 25] == IRREDUCIBLE
    assert outcomes[54, 9] == REDUCIBLE_FULL_TEST
    assert ERROR not in set(outcomes.values())


def test_classify_raises_on_impossible_irreducible(monkeypatch):
    # force the prefilter and the survivor decision to call every polynomial
    # irreducible: the residue guard must trip hard, and the survey must
    # convert the anomaly into an error record instead of dying
    import pentaswan.search as search_mod
    from pentaswan.zpoly import ConsistencyError

    monkeypatch.setattr(search_mod.gf2poly, "_smallest_factor_degree_le",
                        lambda p, depth: None)
    monkeypatch.setattr(search_mod.gf2poly, "_survivor_is_irreducible", lambda p: True)
    with pytest.raises(ConsistencyError):
        classify_shape(PentShape(11, 2), prune=False)
    records = list(survey([PentShape(11, 2)], prune=False, jobs=1))
    assert [r.outcome for r in records] == ["error"]


def refuse_is_irreducible(p):
    raise AssertionError("the survey called is_irreducible")


@pytest.mark.parametrize("prune", [True, False])
def test_survey_runs_the_prefilter_once_per_tested_shape(monkeypatch, prune):
    # (2401, 388), (775, 186) and (1081, 282) are table2 irreducibles, the
    # last two with gcd(n, s) = 31 and 47; the decimation certificate
    # settles the survivors (105, 6) and (1001, 52); (1001, 130), with
    # gcd 13, has a root at d = 15; (14, 4) is a square; the even-s shapes
    # with n = 3, 5 (mod 8) or n even are pruned when prune is on.  Each
    # tested shape takes one root-test call, to depth ROOT_DEPTH from
    # n = 1000 on, and nothing calls is_irreducible
    shapes = [PentShape(n, s) for n, s in
              ((2401, 388), (7, 2), (9, 2), (11, 2), (13, 2), (13, 3), (14, 4), (35, 2),
               (105, 6), (775, 186), (1001, 52), (1001, 130), (1081, 282))]
    prefilter = gf2poly._smallest_factor_degree_le
    called = []

    def counted(p, depth):
        called.append((p, depth))
        return prefilter(p, depth)

    monkeypatch.setattr(gf2poly, "_smallest_factor_degree_le", counted)
    monkeypatch.setattr(gf2poly, "is_irreducible", refuse_is_irreducible)
    records = list(survey(shapes, prune=prune, jobs=1))
    tested = [rec for rec in records if rec.outcome not in (REDUCIBLE_THM1, REDUCIBLE_SQUARE)]
    assert called == [(gf2poly.pent_poly(PentShape(r.n, r.s)).bits,
                       gf2poly.ROOT_DEPTH if r.n >= 1000 else gf2poly.PREFILTER_DEPTH)
                      for r in tested]
    outcomes = {(r.n, r.s): r.outcome for r in records}
    assert outcomes[2401, 388] == outcomes[775, 186] == outcomes[1081, 282] == IRREDUCIBLE
    assert outcomes[105, 6] == outcomes[1001, 52] == outcomes[1001, 130] == REDUCIBLE_FULL_TEST
    skipped = REDUCIBLE_THM1 if prune else REDUCIBLE_SQUARE
    assert {r.outcome for r in records} >= {skipped, REDUCIBLE_SMALL_FACTOR}
    assert ERROR not in outcomes.values()
    assert 0 < len(tested) < len(shapes)


def test_survey_of_decimated_shapes_never_calls_is_irreducible(monkeypatch):
    # every even-s shape with gcd(n, s) > 1 at odd n < 400 and at n = 775
    # and 1001, unpruned: is_irreducible raising would make error rows
    shapes = [sh for sh in enumerate_shapes(7, 400) if math.gcd(sh.n, sh.s) > 1]
    shapes += [sh for n in (775, 1001) for sh in enumerate_shapes(n, n + 1)
               if math.gcd(sh.n, sh.s) > 1]
    monkeypatch.setattr(gf2poly, "is_irreducible", refuse_is_irreducible)
    outcomes = [r.outcome for r in survey(shapes, prune=False, jobs=1)]
    assert len(outcomes) == 1251 and ERROR not in outcomes
    assert outcomes.count(IRREDUCIBLE) == 1  # (775, 186)
    assert outcomes.count(REDUCIBLE_FULL_TEST) == 237


def test_the_deep_root_test_changes_no_row(monkeypatch):
    # above the start n, a root at degree 14..19 settles a shape as
    # red_full, as the rank would: on these columns (even s at odd n, odd s
    # at odd and even n) the rows equal the rows with the start n out of
    # reach, where the root test stops at 13
    shapes = [PentShape(n, s) for n, s_start in ((1001, 2), (1503, 2), (1201, 1), (1202, 1))
              for s in range(s_start, (n - 1) // 3 + 1, 2)]
    assert min(sh.n for sh in shapes) >= search._DEEP_ROOT_MIN_N
    prefilter, seen = gf2poly._smallest_factor_degree_le, []

    def recording(p, depth):
        seen.append((depth, prefilter(p, depth)))
        return seen[-1][1]

    monkeypatch.setattr(gf2poly, "_smallest_factor_degree_le", recording)
    rows = [classify_shape(sh) for sh in shapes]
    assert {depth for depth, _ in seen} == {gf2poly.ROOT_DEPTH}
    assert {None, 14, 15, 16, 17, 18, 19} <= {d for _, d in seen}
    monkeypatch.setattr(search, "_DEEP_ROOT_MIN_N", 3000)
    assert [classify_shape(sh) for sh in shapes] == rows
    assert {depth for depth, _ in seen[len(shapes):]} == {gf2poly.PREFILTER_DEPTH}


# the rows of ``search --n-max 501`` (n, s and outcome, elapsed_us dropped)
# by their SHA-256: no n there takes the deep root test, so none may change
SEARCH_501_ROWS_SHA256 = "792de863632079af905ee28800027526ef4b24e32a107cbc306cd79f5df1ecbc"


@pytest.mark.parametrize("jobs", [1, 2])
def test_search_below_the_start_n_builds_no_deep_row(capsys, tmp_path, jobs):
    gf2poly._root_row.cache_clear()
    gf2poly._zech3.cache_clear()
    out = tmp_path / "run.csv"
    assert cli.main(["search", "--n-max", "501", "--jobs", str(jobs), "--out", str(out)]) == 0
    assert "classified 10292 shapes" in capsys.readouterr().err
    # one z3 table for each degree 2..13, and none past it
    assert gf2poly._zech3.cache_info().currsize == gf2poly.PREFILTER_DEPTH - 1
    rows = "".join(line.rsplit(",", 1)[0] + "\n" for line in out.read_text().splitlines())
    assert hashlib.sha256(rows.encode()).hexdigest() == SEARCH_501_ROWS_SHA256


def test_benchmark_tracer_boundaries_exist():
    # a boundary the library no longer has reads as zero calls in the
    # benchmark, so a rename must fail here
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for group in tracer.boundaries(pentaswan).values() for t in group]
    assert {module for module, _ in targets} == {gf2poly, zpoly, swan}
    for module, attr in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_public_names_and_the_names_the_benchmark_reads_exist():
    # nothing star-imports these modules, so a deletion that leaves an
    # __all__ entry behind goes unnoticed; a name the benchmark reads, once
    # gone, fails a benchmark run rather than a test
    for module in (gf2poly, zpoly, swan, search, verify):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    reads = {
        gf2poly: ("BitPoly", "PentShape", "pent_poly", "mul", "gcd", "pow_frobenius",
                  "is_squarefree", "is_irreducible", "factor_count",
                  "_smallest_factor_degree_le"),
        zpoly: ("lift", "discriminant_mod8", "resultant", "power_sums"),
        swan: ("parity_from_discriminant", "brute_force_parity"),
        search: ("survey", "SearchRecord"),
        verify: ("run_all", "pent_parity_agreement", "thm1_soundness",
                 "discriminant_agreement", "trinomial_agreement", "power_sum_identities"),
        cli: ("main",),
    }
    for module, names in reads.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    rec = search.SearchRecord(7, 2, IRREDUCIBLE, 5)
    assert (rec.n, rec.s, rec.outcome, rec.elapsed_us, rec.factor_bound) == (7, 2, "irr", 5, None)


def test_the_library_imports_only_the_standard_library():
    # pyproject declares no dependencies; numpy and the test tools may be
    # installed, but no module of the package may import them
    paths = sorted(Path(pentaswan.__file__).resolve().parent.glob("*.py"))
    assert len(paths) >= 8
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue  # not an import, or a relative one within the package
            for root in roots:
                assert root in sys.stdlib_module_names or root == "pentaswan", (path.name, root)


def test_prefilter_rejections_audited_by_full_test():
    from pentaswan.gf2poly import is_irreducible, pent_poly

    audited = 0
    for r in survey(enumerate_shapes(7, 80), prune=False):
        if r.outcome == REDUCIBLE_SMALL_FACTOR:
            assert not is_irreducible(pent_poly(PentShape(r.n, r.s)))
            audited += 1
    assert audited > 50


# --- stats ----------------------------------------------------------------------

def test_stats_small_run():
    records = list(survey(enumerate_shapes(7, 32), prune=False))
    agg = stats(records)
    assert agg["total_checked"] == 35
    assert agg["total_irreducible"] == 8
    assert agg["n_mod8"]["1"] == 3 and agg["n_mod8"]["7"] == 5
    assert agg["s_mod8"] == {"0": 1, "1": 0, "2": 3, "3": 0, "4": 1, "5": 0, "6": 3, "7": 0}
    assert agg["distinct_n_with_irr"] == 5
    assert agg["frequency"] == pytest.approx(8 / 35)
    assert sum(agg["n_mod8"].values()) == sum(agg["s_mod8"].values()) == 8


def test_stats_empty_stream():
    agg = stats([])
    assert agg["total_checked"] == 0 and agg["total_irreducible"] == 0
    assert agg["frequency"] == 0.0
    assert set(agg) == {
        "total_checked",
        "total_irreducible",
        "n_mod8",
        "s_mod8",
        "distinct_n_with_irr",
        "frequency",
        "arbitrary_poly_baseline",
        "errors",
        "outcomes",
    }
    assert agg["outcomes"] == {}


def test_stats_counts_error_rows():
    clean = stats(sample_records())
    failed = [SearchRecord(13, 2, ERROR, 5), SearchRecord(13, 4, ERROR, 6)]
    agg = stats(sample_records() + failed)
    assert agg["errors"] == 2 and clean["errors"] == 0
    assert agg["total_checked"] == 5
    for key in ("total_irreducible", "n_mod8", "s_mod8", "distinct_n_with_irr"):
        assert agg[key] == clean[key], key


# --- flat files -------------------------------------------------------------------

def sample_records():
    return [
        SearchRecord(7, 2, IRREDUCIBLE, 10),
        SearchRecord(9, 2, REDUCIBLE_SMALL_FACTOR, 20),
        SearchRecord(11, 2, REDUCIBLE_THM1, 1),
    ]


def test_csv_round_trip():
    buf = io.StringIO()
    assert write_csv(sample_records(), buf) == 3
    buf.seek(0)
    assert buf.readline().strip() == ",".join(CSV_HEADER)
    buf.seek(0)
    back = read_csv(buf)
    assert [record_key(r) for r in back] == [record_key(r) for r in sample_records()]
    assert [r.elapsed_us for r in back] == [10, 20, 1]


def test_csv_header_required():
    with pytest.raises(ValueError):
        read_csv(io.StringIO("7,2,irr,10\n"))


@pytest.mark.parametrize("fmt", ["csv"])
def test_resume_point_cuts_before_the_last_column_and_a_torn_line(fmt):
    records = sample_records() + [SearchRecord(11, 3, REDUCIBLE_THM1, 2)]
    buf = io.StringIO(newline="")
    write_csv(records, buf)
    data = buf.getvalue().encode()
    lines = data.splitlines(keepends=True)
    head = len(lines) - 2  # the two n = 11 rows end the file
    before = len(b"".join(lines[:head]))
    for torn in (b"", b"13,2,ir", b'{"n": 13'):
        restart, offset, kept = resume_point(io.BytesIO(data + torn))
        assert (restart, offset) == (11, before)
        assert [record_key(r) for r in kept] == [record_key(r) for r in records[:2]]
    # one complete row of the last column, then a torn line
    restart, offset, kept = resume_point(io.BytesIO(b"".join(lines[:head + 1]) + b"1"))
    assert (restart, offset, len(kept)) == (11, before, 2)
    assert resume_point(io.BytesIO(b"".join(lines[:-4]) + lines[-4][:3])) == (None, 0, [])
