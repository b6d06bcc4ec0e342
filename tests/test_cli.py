import argparse
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pentaswan
from pentaswan import cli
from pentaswan.gf2poly import PentShape, factor_count, pent_poly
from pentaswan.search import read_csv, stats, survey, enumerate_shapes
from pentaswan.swan import pent_discriminant_closed_form
from pentaswan.zpoly import lift, power_sums


SRC = str(Path(pentaswan.__file__).resolve().parent.parent)


def record_key(r):
    return (r.n, r.s, r.outcome)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- predict ---------------------------------------------------------------

def test_predict_reducible(capsys):
    code, out, _ = run(capsys, "predict", "--n", "11", "--s", "2")
    assert code == 0
    assert "reducible" in out and "3" in out


def test_predict_inconclusive(capsys):
    code, out, _ = run(capsys, "predict", "--n", "7", "--s", "2")
    assert code == 0
    assert "no certificate" in out and "inconclusive" in out


def test_predict_json_matches_library(capsys):
    code, out, _ = run(capsys, "predict", "--n", "17", "--s", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    shape = PentShape(17, 4)
    assert payload["certified_reducible"] is False
    assert payload["discriminant_mod8"] == pent_discriminant_closed_form(shape)
    assert payload["parity"] == "odd"


def test_predict_trinomial(capsys):
    code, out, _ = run(capsys, "predict", "--n", "8", "--k", "3")
    assert code == 0 and "reducible" in out
    code, out, _ = run(capsys, "predict", "--n", "7", "--k", "6")
    assert code == 0 and "inconclusive" in out


def test_predict_usage_errors(capsys):
    assert run(capsys, "predict", "--n", "7", "--s", "3")[0] == 1  # shape invalid
    assert run(capsys, "predict", "--n", "7")[0] == 1
    assert run(capsys, "predict", "--n", "13", "--s", "1")[0] == 1  # odd s
    assert run(capsys, "predict", "--s", "2")[0] == 1


# --- test (brute force) -------------------------------------------------------

def test_test_hex_poly(capsys):
    code, out, _ = run(capsys, "test", "--poly", "7")
    assert code == 0
    assert out.strip() == "irreducible, 1 factor"


def test_test_shape_matches_library(capsys):
    code, out, _ = run(capsys, "test", "--n", "9", "--s", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    total, parity = factor_count(pent_poly(PentShape(9, 2)))
    assert payload["factors"] == total == 3
    assert payload["parity"] == parity == "odd"
    assert payload["irreducible"] is False


def test_test_trinomial(capsys):
    code, out, _ = run(capsys, "test", "--n", "7", "--k", "6")
    assert code == 0 and "irreducible" in out


def test_test_usage_errors(capsys):
    assert run(capsys, "test", "--poly", "ZZ")[0] == 1
    assert run(capsys, "test", "--poly", "1")[0] == 1  # degree 0
    assert run(capsys, "test")[0] == 1


# --- disc ------------------------------------------------------------------------

def test_disc_both_routes_agree(capsys):
    code, out, _ = run(capsys, "disc", "--n", "7", "--s", "2")
    assert code == 0
    assert out == "closed_form: 1\ndiscriminant_mod8: 1\nagree\n"
    code, out, _ = run(capsys, "disc", "--n", "7", "--s", "2", "--format", "json")
    assert code == 0
    assert out == '{"agree": true, "closed_form": 1, "discriminant_mod8": 1}\n'


def test_disc_resultant_only_from_hex(capsys):
    p = pent_poly(PentShape(11, 2))
    code, out, _ = run(capsys, "disc", "--poly", p.to_hex())
    assert code == 0 and "discriminant_mod8: 5" in out
    code, out, _ = run(capsys, "disc", "--poly", "7")
    assert (code, out) == (0, "discriminant_mod8: 5\n")


def test_disc_without_a_closed_form_prints_the_resultant_only(capsys):
    # odd s: no closed form, so no agreement line either
    code, out, _ = run(capsys, "disc", "--n", "13", "--s", "3")
    assert (code, out) == (0, "discriminant_mod8: 5\n")


def test_disc_usage_errors(capsys):
    code, _, err = run(capsys, "disc")
    assert code == 1 and "disc needs --n and --s, or --poly" in err


# --- powersums ----------------------------------------------------------------------

def test_powersums_exact_matches_library(capsys):
    code, out, _ = run(capsys, "powersums", "--n", "13", "--s", "2", "--upto", "11")
    assert code == 0
    table = power_sums(lift(pent_poly(PentShape(13, 2))), 11)
    lines = out.strip().splitlines()
    assert lines[0] == "S_0 = 13"
    assert lines[11] == f"S_11 = {table[11]}"
    assert len(lines) == 12


def test_powersums_mod_2k(capsys):
    code, out, _ = run(
        capsys, "powersums", "--n", "13", "--s", "2", "--upto", "8",
        "--mod", "2^3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["modulus"] == 8
    assert payload["values"]["2"] == 6  # -2 mod 8


@pytest.mark.parametrize("k", [1, 3, 8])
def test_powersums_mod_2k_reduces_every_exact_value(capsys, k):
    code, out, _ = run(capsys, "powersums", "--n", "40", "--s", "6", "--upto", "120",
                       "--mod", f"2^{k}", "--format", "json")
    assert code == 0
    exact = power_sums(lift(pent_poly(PentShape(40, 6))), 120)
    assert json.loads(out)["values"] == {str(m): v % (1 << k) for m, v in enumerate(exact)}


def test_powersums_bad_mod(capsys):
    # non-ASCII digits, and a 2^k too long for Python's int-to-str limit
    for mod, fmt in [("8", "human"), ("2^0", "human"), ("2^x", "human"), ("3^2", "human"),
                     ("2^\u0663", "human"), ("2^\u00b2", "human"), ("2^100000", "json")]:
        code, _, err = run(capsys, "powersums", "--n", "13", "--s", "2", "--upto", "4",
                           "--mod", mod, "--format", fmt)
        assert code == 1 and err.startswith("error: --mod"), mod


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_powersums_past_the_digit_limit_prints_nothing(capsys, fmt):
    # under a limit of 640 digits, S_3856 of X^3 + X^2 + 1 is the first
    # value too long to print
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "powersums", "--poly", "d", "--upto", "5000",
                             "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "--upto" in err and "--mod 2^k" in err


@pytest.mark.parametrize("argv", [
    ("predict", "--n", "9", "--s", "2", "--k", "4"),
    ("test", "--n", "9", "--s", "2", "--k", "4"),
    ("test", "--poly", "7", "--n", "9", "--s", "2"),
    ("test", "--poly", "7", "--k", "1"),
    ("disc", "--poly", "7", "--n", "7", "--s", "2"),
    ("disc", "--poly", "7", "--n", "7"),
    ("powersums", "--poly", "7", "--n", "9", "--s", "2", "--upto", "3"),
    ("powersums", "--n", "9", "--s", "2", "--k", "4", "--upto", "3"),
], ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv))
def test_two_polynomial_selectors_are_a_usage_error(capsys, argv):
    # each would answer for one polynomial and silently ignore the other
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(("error: --poly names the polynomial alone",
                           "error: --s (pentanomial) and --k (trinomial)"))


# --- search / stats --------------------------------------------------------------------

def test_search_csv_to_file_and_stats(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    code, _, err = run(
        capsys, "search", "--n-min", "7", "--n-max", "32", "--no-prune",
        "--jobs", "1", "--out", str(out_path),
    )
    assert code == 0 and "classified 35 shapes" in err
    with open(out_path) as f:
        records = read_csv(f)
    irr = {(r.n, r.s) for r in records if r.outcome == "irr"}
    assert irr == {(7, 2), (17, 2), (17, 4), (23, 6), (25, 6), (31, 2), (31, 6), (31, 8)}

    code, out, _ = run(capsys, "stats", str(out_path))
    assert code == 0
    payload = json.loads(out)
    expected = stats(records)
    assert payload == expected
    assert payload["total_irreducible"] == 8


def test_stats_reports_count_and_mean_time_per_outcome(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    run(capsys, "search", "--n-min", "7", "--n-max", "60", "--s-parity", "odd",
        "--jobs", "1", "--out", str(out_path))
    code, out, _ = run(capsys, "stats", str(out_path))
    assert code == 0
    payload = json.loads(out)
    with open(out_path) as f:
        records = read_csv(f)
    times = {}
    for r in records:
        times.setdefault(r.outcome, []).append(r.elapsed_us)
    assert set(payload["outcomes"]) == set(times) and len(times) >= 3
    assert sum(o["count"] for o in payload["outcomes"].values()) == payload["total_checked"]
    for outcome, us in times.items():
        assert payload["outcomes"][outcome] == {"count": len(us), "mean_us": sum(us) / len(us)}


# the exact report that `stats` prints for a four-row CSV and a header-only one
STATS_FOUR_ROWS = """\
{
  "arbitrary_poly_baseline": 0.0013,
  "distinct_n_with_irr": 2,
  "errors": 1,
  "frequency": 0.5,
  "n_mod8": {
    "0": 0,
    "1": 1,
    "2": 0,
    "3": 0,
    "4": 0,
    "5": 0,
    "6": 0,
    "7": 1
  },
  "outcomes": {
    "error": {
      "count": 1,
      "mean_us": 7.0
    },
    "irr": {
      "count": 2,
      "mean_us": 7.5
    },
    "red_thm1": {
      "count": 1,
      "mean_us": 1.0
    }
  },
  "s_mod8": {
    "0": 0,
    "1": 0,
    "2": 1,
    "3": 0,
    "4": 1,
    "5": 0,
    "6": 0,
    "7": 0
  },
  "total_checked": 4,
  "total_irreducible": 2
}
"""

STATS_NO_ROWS = """\
{
  "arbitrary_poly_baseline": 0.0013,
  "distinct_n_with_irr": 0,
  "errors": 0,
  "frequency": 0.0,
  "n_mod8": {
    "0": 0,
    "1": 0,
    "2": 0,
    "3": 0,
    "4": 0,
    "5": 0,
    "6": 0,
    "7": 0
  },
  "outcomes": {},
  "s_mod8": {
    "0": 0,
    "1": 0,
    "2": 0,
    "3": 0,
    "4": 0,
    "5": 0,
    "6": 0,
    "7": 0
  },
  "total_checked": 0,
  "total_irreducible": 0
}
"""


@pytest.mark.parametrize("rows, expected", [
    ("7,2,irr,10\r\n11,2,red_thm1,1\r\n13,2,error,7\r\n17,4,irr,5\r\n", STATS_FOUR_ROWS),
    ("", STATS_NO_ROWS),
], ids=["four-rows", "header-only"])
def test_stats_prints_the_exact_report(capsys, tmp_path, rows, expected):
    path = tmp_path / "run.csv"
    path.write_bytes(("n,s,outcome,elapsed_us\r\n" + rows).encode())
    assert run(capsys, "stats", str(path)) == (0, expected, "")


def test_search_resume_equivalent_to_one_shot(capsys, tmp_path):
    out_path = tmp_path / "resumable.csv"
    run(capsys, "search", "--n-min", "7", "--n-max", "30", "--jobs", "1",
        "--out", str(out_path))
    # simulate an interrupted run: chop the file mid-way through the last column
    lines = out_path.read_text().splitlines(keepends=True)
    out_path.write_text("".join(lines[:-2]))
    code, _, _ = run(
        capsys, "search", "--n-min", "7", "--n-max", "60", "--jobs", "1",
        "--out", str(out_path), "--resume",
    )
    assert code == 0
    with open(out_path) as f:
        resumed = [record_key(r) for r in read_csv(f)]
    direct = [record_key(r) for r in survey(enumerate_shapes(7, 60))]
    assert resumed == direct


def test_search_error_rows_exit_2_and_keep_the_file(capsys, tmp_path, monkeypatch):
    # call every pentanomial irreducible: the residue guard then fails on the
    # even-s shapes with n = 3, 5 (mod 8), and those rows come back "error"
    from pentaswan import gf2poly

    monkeypatch.setattr(gf2poly, "_smallest_factor_degree_le", lambda p, depth: None)
    monkeypatch.setattr(gf2poly, "_survivor_is_irreducible", lambda p: True)
    out_path = tmp_path / "errors.csv"
    code, _, err = run(
        capsys, "search", "--n-min", "7", "--n-max", "14", "--no-prune",
        "--jobs", "1", "--out", str(out_path),
    )
    assert code == 2
    with open(out_path) as f:
        rows = [(r.n, r.s, r.outcome) for r in read_csv(f)]
    assert rows == [(7, 2, "irr"), (9, 2, "irr"), (11, 2, "error"), (13, 2, "error"),
                    (13, 4, "error")]
    assert "3 error rows" in err
    assert "n=11, s=2: ConsistencyError: irreducible (n=11, s=2) with n = 3 (mod 8)" in err
    code, out, _ = run(capsys, "stats", str(out_path))
    assert code == 0
    assert json.loads(out)["errors"] == 3


def row_keys(data: bytes):
    return [record_key(r) for r in read_csv(io.StringIO(data.decode(), newline=""))]


@pytest.mark.parametrize("fmt", ["csv"])
def test_search_resume_after_a_torn_line_appends_and_keeps_rows_in_place(capsys, tmp_path, fmt):
    out_path = tmp_path / f"torn.{fmt}"
    args = ("search", "--n-min", "7", "--n-max", "60", "--jobs", "1", "--out", str(out_path))
    run(capsys, *args)
    direct = out_path.read_bytes()
    # a kill during a write leaves a partial last line
    torn = direct[:-7]
    out_path.write_bytes(torn)
    *complete, partial = torn.splitlines(keepends=True)
    assert not partial.endswith(b"\n")
    keys = row_keys(b"".join(complete))
    kept = b"".join(complete[:1 + sum(n < keys[-1][0] for n, _, _ in keys)])
    code, _, err = run(capsys, *args, "--resume")
    assert code == 0 and f"classified {len(row_keys(direct))} shapes" in err
    resumed = out_path.read_bytes()
    assert resumed.startswith(kept)
    assert row_keys(resumed) == row_keys(direct)


def test_search_resume_exits_2_on_a_kept_error_row(capsys, tmp_path):
    out_path = tmp_path / "kept-error.csv"
    out_path.write_bytes(b"n,s,outcome,elapsed_us\r\n7,2,error,5\r\n9,2,red_thm1,1\r\n9,")
    code, _, err = run(capsys, "search", "--n-min", "7", "--n-max", "14", "--jobs", "1",
                       "--out", str(out_path), "--resume")
    assert code == 2
    assert "1 error rows, first at n=7, s=2" in err
    with open(out_path) as f:
        assert [record_key(r) for r in read_csv(f)] == [(7, 2, "error")] + [
            record_key(r) for r in survey(enumerate_shapes(9, 14))]


@pytest.mark.parametrize("resume", [False, True])
def test_search_usage_error_leaves_the_out_file_untouched(capsys, tmp_path, resume):
    out_path = tmp_path / "kept.csv"
    run(capsys, "search", "--n-min", "7", "--n-max", "30", "--jobs", "1", "--out", str(out_path))
    before = out_path.read_bytes()
    code, _, err = run(capsys, "search", "--n-min", "3", "--n-max", "30", "--jobs", "1",
                       "--out", str(out_path), *(["--resume"] if resume else []))
    assert code == 1 and "n_lo must be at least 7" in err
    assert out_path.read_bytes() == before


@pytest.mark.parametrize("first, resume", [
    (("--n-max", "60"), ("--n-max", "40")),
    (("--n-max", "60"), ("--n-min", "61", "--n-max", "80")),
    (("--n-max", "61", "--n-parity", "all", "--s-parity", "odd"),
     ("--n-max", "80", "--s-parity", "odd")),
])
def test_search_resume_refuses_to_drop_a_finished_column(capsys, tmp_path, first, resume):
    # each file ends in a finished column (n = 59, 59, 60) that the resumed run
    # would not redo
    out_path = tmp_path / "finished.csv"
    run(capsys, "search", *first, "--jobs", "1", "--out", str(out_path))
    before = out_path.read_bytes()
    code, _, err = run(capsys, "search", *resume, "--jobs", "1", "--out", str(out_path),
                       "--resume")
    assert code == 1 and err.startswith("error: ") and "drop the column n=" in err
    assert out_path.read_bytes() == before


@pytest.mark.parametrize("first, resume", [
    ((), ("--s-parity", "odd")),
    ((), ("--no-prune",)),
    (("--n-parity", "all"), ()),
    ((), ("--n-min", "9")),
], ids=["s-parity", "no-prune", "n-parity", "n-min"])
def test_search_resume_refuses_changed_flags(capsys, tmp_path, first, resume):
    # the rows below the redone column n = 59 were written under other flags
    out_path = tmp_path / "flags.csv"
    run(capsys, "search", "--n-max", "60", *first, "--jobs", "1", "--out", str(out_path))
    before = out_path.read_bytes()
    code, _, err = run(capsys, "search", "--n-max", "80", *resume, "--jobs", "1",
                       "--out", str(out_path), "--resume")
    assert code == 1 and err.startswith("error: --resume: the rows of ")
    assert out_path.read_bytes() == before


def test_search_resume_after_sigkill_matches_one_shot(capsys, tmp_path):
    # kill a real run once its file passes a seeded size (the file grows a
    # buffer at a time, so the kill usually tears a line), then resume it
    one_shot = tmp_path / "one-shot.csv"
    args = ["search", "--n-min", "7", "--n-max", "400", "--jobs", "1"]
    run(capsys, *args, "--out", str(one_shot))
    direct = one_shot.read_bytes()
    cut = random.Random(2024).randrange(len(direct) // 10, len(direct) * 2 // 3)
    out_path = tmp_path / "killed.csv"
    command = [sys.executable, "-m", "pentaswan.cli", *args, "--out", str(out_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(command, env=env, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 120
    try:
        while proc.poll() is None and (not out_path.exists() or out_path.stat().st_size < cut):
            assert time.monotonic() < deadline, "the run never reached the cut"
            time.sleep(0.001)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    killed = out_path.read_bytes()
    assert cut <= len(killed) < len(direct)
    complete = [line for line in killed.splitlines(keepends=True) if line.endswith(b"\n")]
    keys = row_keys(b"".join(complete))
    kept = b"".join(complete[:1 + sum(n < keys[-1][0] for n, _, _ in keys)])
    resumed = subprocess.run(command + ["--resume"], env=env, stderr=subprocess.DEVNULL,
                             timeout=120)
    assert resumed.returncode == 0
    assert out_path.read_bytes().startswith(kept)
    assert row_keys(out_path.read_bytes()) == row_keys(direct)


@pytest.mark.parametrize("command", [["search", "--n-max", "20"],
                                     ["verify", "--parity-max", "20", "--thm1-max", "20"]])
@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_1_is_a_usage_error_before_any_pool(capsys, monkeypatch, command, jobs):
    from pentaswan import _pool

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(_pool, "ProcessPoolExecutor", no_pool)
    code, out, err = run(capsys, *command, "--jobs", jobs)
    assert code == 1 and out == "" and "--jobs: must be a whole number >= 1" in err


def test_search_usage_errors(capsys, tmp_path):
    # CSV is the one survey format: --format is no option of search, and is
    # refused before the file is opened
    out_path = tmp_path / "run.csv"
    run(capsys, "search", "--n-max", "20", "--jobs", "1", "--out", str(out_path))
    before = out_path.read_bytes()
    code, out, err = run(capsys, "search", "--n-max", "20", "--format", "jsonl",
                         "--out", str(out_path), "--resume")
    assert (code, out) == (1, "") and "unrecognized arguments: --format jsonl" in err
    assert out_path.read_bytes() == before
    assert run(capsys, "search", "--n-max", "20", "--resume")[0] == 1
    assert run(capsys, "search", "--n-min", "3", "--n-max", "20")[0] == 1
    assert run(capsys, "search", "--n-max", "20", "--prefilter-depth", "13")[0] == 1


def test_stats_reads_stdin_dash(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "run.csv"
    run(capsys, "search", "--n-min", "7", "--n-max", "20", "--jobs", "1",
        "--out", str(out_path))
    code, from_file, _ = run(capsys, "stats", str(out_path))
    assert code == 0
    assert json.loads(from_file)["total_checked"] == sum(1 for _ in enumerate_shapes(7, 20))

    # the CRLF line ends that search writes reach stdin untranslated
    monkeypatch.setattr("sys.stdin", io.StringIO(out_path.read_bytes().decode()))
    assert run(capsys, "stats", "-") == (0, from_file, "")


def test_stats_missing_file(capsys):
    assert run(capsys, "stats", "/nonexistent/run.csv")[0] == 1


JSONL_ROW = '{"n": 7, "s": 2, "outcome": "irr", "elapsed_us": 5}\n'


@pytest.mark.parametrize("text, message", [
    ("", "expected CSV header"),
    ("7,2,irr,5\n9,2,irr,6\n", "expected CSV header"),
    # JSON lines, well formed or not, fail the CSV header check
    ('{"n": 7, "s": 2}\n', "expected CSV header"),
    (JSONL_ROW + "[1]\n", "expected CSV header"),
    ('{"n": "7", "s": 2, "outcome": "irr", "elapsed_us": 5}\n', "expected CSV header"),
    ('{"n": 7, "s": true, "outcome": "irr", "elapsed_us": 5}\n', "expected CSV header"),
    ('{"n": 7, "s": 2, "outcome": "irr", "elapsed_us": 5.0}\n', "expected CSV header"),
    ('{"n": 7, "s": 2, "outcome": "bogus", "elapsed_us": 5}\n', "expected CSV header"),
    ("n,s,outcome,elapsed_us\n7,2,bogus,5\n", "7,2,bogus,5"),
    ("n,s,outcome,elapsed_us\n7,2,irr\n", "fields with integer n,s,elapsed_us"),
    ("n,s,outcome,elapsed_us\n7,2,irr,5,0\n", "7,2,irr,5,0"),
    ("n,s,outcome,elapsed_us\n7,x,irr,5\n", "7,x,irr,5"),
    ("n,s,outcome,elapsed_us\n-5,2,irr,-7\n", "fields with integer n,s,elapsed_us"),
    ("n,s,outcome,elapsed_us\n7,2,irr,5\n7,9,irr,5\n", "7,9,irr,5"),
    ("n,s,outcome,elapsed_us\n1_1,2,red_thm1,3\n", "1_1,2,red_thm1,3"),
    ("n,s,outcome,elapsed_us\n+9,2,irr,5\n", "+9,2,irr,5"),
    ("n,s,outcome,elapsed_us\n7,2,irr, 5\n", "7,2,irr, 5"),
    ("n,s,outcome,elapsed_us\n\u0667,2,irr,5\n", "\u0667,2,irr,5"),
    ('{"n": 7, "s": 9, "outcome": "irr", "elapsed_us": 5}\n', "expected CSV header"),
    ('{"n": 7, "s": 2, "outcome": "irr", "elapsed_us": -1}\n', "expected CSV header"),
], ids=["empty", "headerless", "missing-field", "not-an-object", "string-n", "bool-s",
        "float-elapsed", "unknown-outcome", "csv-unknown-outcome", "csv-three-fields",
        "csv-five-fields", "csv-not-an-int", "csv-negative", "csv-no-shape",
        "csv-underscore", "csv-plus-sign", "csv-space", "csv-arabic-indic-digit", "no-shape",
        "negative-elapsed"])
def test_stats_malformed_input_exits_1(capsys, tmp_path, text, message):
    path = tmp_path / "run.csv"
    path.write_text(text)
    code, _, err = run(capsys, "stats", str(path))
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_search_resume_on_malformed_jsonl_exits_1_and_keeps_the_file(capsys, tmp_path):
    out_path = tmp_path / "run.jsonl"
    out_path.write_text(JSONL_ROW + '{"n": 9, "s": 2}\n[1]\n')
    before = out_path.read_bytes()
    code, _, err = run(capsys, "search", "--n-min", "7", "--n-max", "14", "--jobs", "1",
                       "--out", str(out_path), "--resume")
    assert code == 1
    assert err.startswith("error: expected CSV header") and "Traceback" not in err
    assert out_path.read_bytes() == before


def test_search_resume_on_a_mistyped_csv_row_exits_1_and_keeps_the_file(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    out_path.write_text("n,s,outcome,elapsed_us\n7,2,irr,5\n9,2,bogus,6\n")
    before = out_path.read_bytes()
    code, _, err = run(capsys, "search", "--n-min", "7", "--n-max", "14", "--jobs", "1",
                       "--out", str(out_path), "--resume")
    assert code == 1
    assert err.startswith("error: ") and "9,2,bogus,6" in err and "Traceback" not in err
    assert out_path.read_bytes() == before


def test_search_resume_on_an_out_of_range_csv_row_exits_1_and_keeps_the_file(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    out_path.write_text("n,s,outcome,elapsed_us\n7,2,irr,5\n-5,2,irr,-7\n")
    before = out_path.read_bytes()
    code, _, err = run(capsys, "search", "--n-min", "7", "--n-max", "14", "--jobs", "1",
                       "--out", str(out_path), "--resume")
    assert code == 1
    assert err.startswith("error: ") and "-5,2,irr,-7" in err and "Traceback" not in err
    assert out_path.read_bytes() == before


# --- verify -----------------------------------------------------------------------------

def test_verify_small_bounds(capsys):
    code, out, _ = run(
        capsys, "verify", "--parity-max", "40", "--thm1-max", "40",
        "--disc-max", "20", "--trinomial-max", "30", "--powersum-max", "40",
        "--pair-max", "30", "--jobs", "1",
    )
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_verify_json_counts_equal_the_human_lines(capsys):
    argv = ["verify", "--parity-max", "40", "--thm1-max", "40", "--disc-max", "20",
            "--trinomial-max", "30", "--powersum-max", "40", "--pair-max", "30", "--jobs", "1"]
    code, human, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    suites = json.loads(out)["suites"]
    lines = [re.match(r"PASS (.*): (\d+) cases$", line) for line in human.splitlines()]
    assert [(s["name"], s["checked"]) for s in suites] == [
        (m[1], int(m[2])) for m in lines
    ]
    assert all(s["ok"] and s["failures"] == [] for s in suites)


def test_verify_that_checks_nothing_exits_1(capsys):
    zeros = ["verify", "--thm1-max", "0", "--disc-max", "0", "--trinomial-max", "0",
             "--powersum-max", "0", "--jobs", "1", "--format", "json"]
    code, out, err = run(capsys, *zeros, "--parity-max", "0")
    assert (code, out) == (1, "") and err.startswith("error: ") and "0 cases" in err
    code, out, _ = run(capsys, *zeros, "--parity-max", "8")
    assert code == 0
    assert [s["checked"] for s in json.loads(out)["suites"]] == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_verify_failure_exits_2_in_either_format(capsys, monkeypatch, fmt):
    from pentaswan import verify

    bad = verify.CheckResult("planted", checked=3, failures=["(n=7, s=2): wrong"])
    monkeypatch.setattr(verify, "run_all", lambda **kwargs: [bad])
    code, out, _ = run(capsys, "verify", "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out) == {"suites": [
            {"name": "planted", "checked": 3, "ok": False,
             "failures": ["(n=7, s=2): wrong"]}]}
    else:
        assert out == bad.summary() + "\n"


# --- plumbing ----------------------------------------------------------------------------

def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def readme_commands():
    """Every ``pentaswan <command> ...`` line in the README's code blocks,
    joined with its indented continuation lines, comments dropped."""
    commands, in_block, joined = [], False, False
    for line in (Path(__file__).parent.parent / "README.md").read_text().splitlines():
        text = line.split("#")[0].rstrip().rstrip("\\").strip()
        if line.startswith("```"):
            in_block, joined = not in_block, False
        elif in_block and text.startswith("pentaswan "):
            commands.append(text)
            joined = True
        elif in_block and joined and line[:1].isspace() and text:
            commands[-1] += " " + text
        else:
            joined = False
    return commands


def test_readme_cli_synopsis_matches_the_parser():
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    commands = readme_commands()
    assert {command.split()[1] for command in commands} == set(subparsers)
    for command in commands:
        name = command.split()[1]
        options = subparsers[name]._option_string_actions
        for option, value in re.findall(r"(--[a-z][a-z-]*)(?:[ =]([^\s\[\]]+))?", command):
            assert option in options, f"{command}: {name} has no {option}"
            if "|" in value:
                assert tuple(value.split("|")) == options[option].choices, f"{command}: {option}"
