import multiprocessing
import time

import pytest

from pentaswan import _pool, gf2poly, verify, zpoly
from pentaswan.gf2poly import PentShape

SMALL = dict(parity_max=40, thm1_max=40, disc_max=20, trinomial_max=30,
             powersum_max=40, pair_max=30)


def test_run_all_does_not_depend_on_jobs():
    def results(jobs):
        return [(r.name, r.checked, r.failures) for r in verify.run_all(**SMALL, jobs=jobs)]

    gf2poly._root_row.cache_clear()
    pooled = [results(2), results(3)]
    # the pool built the prefilter's tables here, before its workers forked
    assert gf2poly._root_row.cache_info().currsize == 276
    serial = results(1)
    assert [checked > 0 for _, checked, _ in serial] == [True] * 5
    assert pooled == [serial, serial]


def test_run_all_builds_one_pool_and_leaves_no_worker(monkeypatch):
    built = []

    class CountingPool(_pool.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(_pool, "ProcessPoolExecutor", CountingPool)
    verify.run_all(**SMALL, jobs=2)
    assert built == [{"max_workers": 2}]
    assert multiprocessing.active_children() == []


def _raising_column(n):
    raise ZeroDivisionError(f"planted at n={n}")


def test_a_raising_column_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(verify, "_thm1_column", _raising_column)
    with pytest.raises(ZeroDivisionError, match="planted"):
        verify.run_all(**SMALL, jobs=2)
    assert multiprocessing.active_children() == []


def _uneven_column(n):
    # later columns often finish first in a pool
    time.sleep(0.002 * (n % 4))
    return n, [f"failure at {n}"]


def test_sweep_merges_columns_in_n_order():
    # 0, 1 and 3 columns are fewer than the 9 or 13 stripes of jobs 2 and 3
    for ns in (range(7, 40), range(7, 7), range(7, 8), range(7, 10)):
        for jobs in (1, 2, 3):
            result = verify._sweep(verify.CheckResult("uneven"), _uneven_column, ns, jobs)
            assert result.checked == sum(ns), (ns, jobs)
            assert result.failures == [f"failure at {n}" for n in ns], (ns, jobs)


def test_every_stripe_holds_every_residue_mod_8():
    # thm1_soundness's costly columns are n = +-3 (mod 8); an even stripe
    # count would leave them out of half the stripes
    ns = range(7, 241)
    stripes = verify._stripes(ns, 2)
    assert len(stripes) == 9 and sorted(n for st in stripes for n in st) == list(ns)
    assert all({n % 8 for n in st} == set(range(8)) for st in stripes)
    assert verify._stripes(ns, 1) == [ns]


def test_odd_n_even_s_pentanomials_are_squarefree():
    # why the parity suite may fail a non-squarefree shape: over GF(2),
    # p = X^(n-3s) (X^s + 1)^3 + 1; for odd n and even s,
    # p' = X^(n-3s-1) (X^s + 1)^3, and p = 1 (mod X^s + 1), so no factor
    # of p' divides p (p(0) = 1 rules out X)
    for n in range(7, 600, 2):
        for s in verify._even_s_values(n):
            p = gf2poly.pent_poly(PentShape(n, s)).bits
            cube = gf2poly._mul(gf2poly._mul((1 << s) | 1, (1 << s) | 1), (1 << s) | 1)
            assert p == gf2poly._mul(1 << (n - 3 * s), cube) ^ 1, (n, s)
            assert gf2poly._deriv(p) == gf2poly._mul(1 << (n - 3 * s - 1), cube), (n, s)
            assert gf2poly._rem(p, (1 << s) | 1) == 1, (n, s)


def test_a_non_squarefree_parity_shape_is_a_failure(monkeypatch):
    monkeypatch.setattr(gf2poly, "is_squarefree", lambda p: False)
    checked, failures = verify._parity_column(13)
    assert checked == len(verify._even_s_values(13)) == len(failures) == 2
    assert "not squarefree" in failures[0]


def test_a_disc_failure_names_each_route(monkeypatch):
    monkeypatch.setattr(zpoly, "discriminant_mod8", lambda F: (zpoly.discriminant(F) + 4) % 8)
    checked, failures = verify._disc_column(13)
    assert checked == len(failures) == 2
    assert failures[0] == "(n=13, s=2): closed 5, Swan cubic 1, derivative 5"
