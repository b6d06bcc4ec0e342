"""Acceptance suite: every exit criterion, at its stated bound, zero tolerance.

Each test prints one PASS line (visible with `pytest -s tests/test_acceptance.py`);
a failed assertion is the FAIL line.  The multi-hour exhaustive run over
n < 3000 is criterion 9 and only runs with `pytest --full-survey`.
"""

import random
import time

import pytest

from pentaswan import cli, verify
from pentaswan.search import enumerate_shapes, read_csv, stats, survey
from pentaswan.zpoly import IntPoly, h_poly, neg_power_sums, resultant

import oracles

JOBS = 2  # matches the cores the suite is expected to have


def report(criterion, detail, t0):
    print(f"\nACCEPTANCE {criterion} PASS ({time.perf_counter() - t0:.1f}s): {detail}")


def census(n_lo, n_hi, s_parity="even", n_parity="odd"):
    return sum(1 for _ in enumerate_shapes(n_lo, n_hi, s_parity, n_parity))


def test_c1_parity_oracle_agreement():
    t0 = time.perf_counter()
    result = verify.pent_parity_agreement(500, jobs=JOBS)
    assert result.failures == []  # a non-squarefree shape is a failure, and none exists
    assert result.checked == census(7, 500)
    report("C1", f"closed-form parity = brute-force parity on {result.checked} shapes", t0)


def test_c2_certificate_soundness():
    t0 = time.perf_counter()
    result = verify.thm1_soundness(501, jobs=JOBS)  # odd n < 500 plus even n to 500
    assert result.failures == []
    expected = sum(
        1
        for n in range(7, 501)
        for s in range(2, (n - 1) // 3 + 1, 2)
        if n % 2 == 0 or n % 8 in (3, 5)
    )
    assert result.checked == expected
    report("C2", f"{result.checked} reducibility certificates all confirmed", t0)


def test_c3_reference_table_below_300(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "table.csv"
    code = cli.main(
        ["search", "--n-min", "7", "--n-max", "300", "--s-parity", "even",
         "--n-parity", "odd", "--jobs", str(JOBS), "--out", str(out)]
    )
    assert code == 0
    with open(out) as f:
        records = read_csv(f)
    found = {(r.n, r.s) for r in records if r.outcome == "irr"}
    expected = set(oracles.table2_pairs(n_hi=300))
    assert found == expected
    assert len(records) == census(7, 300)
    report("C3", f"search reproduced all {len(expected)} known pairs below 300", t0)


def test_hard_slice_at_production_degrees(tmp_path):
    # [2991, 3000) is where the full survey spends its time: full-depth
    # prefilters and the squarefree gcd plus Berlekamp rank on each survivor
    t0 = time.perf_counter()
    out = tmp_path / "hard.csv"
    code = cli.main(["search", "--n-min", "2991", "--n-max", "3000", "--jobs", str(JOBS),
                     "--out", str(out)])
    assert code == 0
    with open(out) as f:
        records = read_csv(f)
    found = {(r.n, r.s) for r in records if r.outcome == "irr"}
    expected = set(oracles.table2_pairs(2991))
    assert found == expected and len(expected) == 5
    assert len(records) == census(2991, 3000)
    report("hard slice", f"search reproduced the {len(expected)} known pairs in [2991, 3000)", t0)


def test_c4_enumerator_census():
    t0 = time.perf_counter()
    total = census(7, 3000)
    assert total == 374_250
    report("C4", "374,250 even-gap shapes with odd n in [7, 3000)", t0)


def test_c5_discriminant_closed_form_vs_resultant():
    t0 = time.perf_counter()
    result = verify.discriminant_agreement(60, jobs=JOBS)
    assert result.failures == []
    assert result.checked == census(7, 61)
    report("C5", f"discriminant residues agree on {result.checked} shapes", t0)


def test_c6_power_sum_identities():
    t0 = time.perf_counter()
    result = verify.power_sum_identities(200, 120, jobs=JOBS)
    assert result.failures == []
    assert result.checked == census(7, 200)
    report("C6", f"power-sum identities exact on {result.checked} shapes", t0)


def test_c7_trinomial_cross_validation():
    t0 = time.perf_counter()
    result = verify.trinomial_agreement(300, jobs=JOBS)
    assert result.failures == []
    expected = sum(
        1 for n in range(2, 301) for k in range(1, n) if (n + k) % 2 == 1
    )
    assert result.checked == expected
    report("C7", f"trinomial parity matched brute force on {result.checked} pairs", t0)


def test_c8_resultant_and_series_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(2024)

    def random_monic_01(max_deg):
        deg = rng.randrange(2, max_deg + 1)
        terms = [(deg, 1), (0, 1)]
        terms += [(e, 1) for e in range(1, deg) if rng.random() < 0.5]
        return IntPoly(terms)

    for _ in range(200):
        F = random_monic_01(20)
        assert resultant(F, h_poly(F)) == resultant(F, F.derivative()), F
    for _ in range(200):
        F = random_monic_01(30)
        assert neg_power_sums(F, 60) == oracles.series_neg_power_sums(F.to_dense(), 60), F
    report("C8", "400 randomized resultant/series identities held exactly", t0)


@pytest.mark.full_survey
def test_c9_full_survey_below_3000(tmp_path):
    t0 = time.perf_counter()
    records = list(survey(enumerate_shapes(7, 3000), jobs=None))
    assert len(records) == 374_250
    found = {(r.n, r.s) for r in records if r.outcome == "irr"}
    assert found == set(oracles.table2_pairs())
    agg = stats(records)
    assert agg.errors == 0
    assert agg.total_irreducible == 804
    assert agg.n_mod8[1] == 401 and agg.n_mod8[7] == 403
    assert {k: v for k, v in agg.s_mod8.items() if k % 2 == 0} == {
        0: 204, 2: 214, 4: 188, 6: 198,
    }
    assert agg.distinct_n_with_irr == 408
    out = tmp_path / "full.csv"
    with open(out, "w") as f:
        from pentaswan.search import write_csv

        write_csv(records, f)
    report("C9", f"full survey: 804 irreducibles, splits 401/403 and "
                 f"214/188/198/204 (csv at {out})", t0)
