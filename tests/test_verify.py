import time

from pentaswan import verify

SMALL = dict(parity_max=40, thm1_max=40, disc_max=20, trinomial_max=30,
             powersum_max=40, pair_max=30)


def test_run_all_does_not_depend_on_jobs():
    def results(jobs):
        return [(r.name, r.checked, r.failures, r.notes)
                for r in verify.run_all(**SMALL, jobs=jobs)]

    serial = results(1)
    assert [checked > 0 for _, checked, _, _ in serial] == [True] * 5
    assert results(2) == serial


def _uneven_column(n):
    # later columns often finish first in a pool
    time.sleep(0.002 * (n % 4))
    return n, [f"failure at {n}"], [f"note at {n}"] if n % 3 else []


def test_sweep_merges_columns_in_n_order():
    ns = range(7, 40)
    for jobs in (1, 2):
        result = verify._sweep(verify.CheckResult("uneven"), _uneven_column, ns, jobs)
        assert result.checked == sum(ns)
        assert result.failures == [f"failure at {n}" for n in ns]
        assert result.notes == [f"note at {n}" for n in ns if n % 3]
