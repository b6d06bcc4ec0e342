"""Cross-validation suites: closed forms against exact brute-force oracles.

Each suite sweeps a parameter range and compares two independently computed
answers (closed-form predicate vs. actual factorization structure, or
closed-form discriminant vs. exact resultant).  A clean run returns zero
failures; any failure would be a genuine finding, since the closed forms
are supposed to be theorems.

Every suite computes a column function for each n, each column returning
its (checked, failures) pair, and merges the columns in n order at any
``jobs``.  At ``jobs`` > 1 the columns go to the pool as ``4 * jobs + 1``
striped tasks, and ``run_all`` keeps one pool open for all five suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import gf2poly, swan, zpoly
from ._pool import pool_map, shared_pool, workers
from .gf2poly import PentShape

__all__ = [
    "CheckResult",
    "discriminant_agreement",
    "pent_parity_agreement",
    "power_sum_identities",
    "run_all",
    "thm1_soundness",
    "trinomial_agreement",
]


@dataclass
class CheckResult:
    """Outcome of one suite: how many cases ran and which ones failed."""

    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = f"{status} {self.name}: {self.checked} cases"
        if self.failures:
            line += f", {len(self.failures)} failures (first: {self.failures[0]})"
        return line


def _stripes(ns: range, jobs: int | None) -> list[range]:
    """Column i of ``ns`` goes to stripe i mod ``count``, one pool task a
    stripe: a few stripes a worker balance the load for far less dispatch
    than a task a column.  The count is odd, so each stripe holds every
    residue of n mod 8; with an even count, the costly n = +-3 (mod 8)
    columns of ``thm1_soundness`` would crowd into half the stripes."""
    jobs = workers(jobs)
    count = 4 * jobs + 1 if jobs > 1 else 1
    return [ns[j::count] for j in range(min(count, len(ns)))]


def _run_stripe(column: Callable, ns: range) -> list[tuple[int, list[str]]]:
    return [column(n) for n in ns]


def _sweep(result: CheckResult, column: Callable, ns: range, jobs: int | None) -> CheckResult:
    """Merge ``column(n)``, a (checked, failures) pair, for every n of
    ``ns`` into ``result``, in n order."""
    done = list(pool_map(partial(_run_stripe, column), _stripes(ns, jobs), jobs))
    for i in range(len(ns)):
        checked, failures = done[i % len(done)][i // len(done)]
        result.checked += checked
        result.failures.extend(failures)
    return result


def _even_s_values(n: int) -> range:
    return range(2, (n - 1) // 3 + 1, 2)


def _parity_column(n: int) -> tuple[int, list[str]]:
    checked = 0
    failures = []
    for s in _even_s_values(n):
        shape = PentShape(n, s)
        p = gf2poly.pent_poly(shape)
        checked += 1
        # p = X^(n-3s) (X^s + 1)^3 + 1, so for odd n and even s,
        # p' = X^(n-3s-1) (X^s + 1)^3 while p = 1 (mod X^s + 1): gcd(p, p') = 1
        if not gf2poly.is_squarefree(p):
            failures.append(f"(n={n}, s={s}): not squarefree, against gcd(p, p') = 1")
            continue
        predicted = swan.pent_parity(shape).parity
        observed = gf2poly.factor_count(p).parity
        if predicted != observed:
            failures.append(f"(n={n}, s={s}): predicted {predicted}, observed {observed}")
    return checked, failures


def pent_parity_agreement(n_max: int = 500, jobs: int | None = 1) -> CheckResult:
    """Closed-form parity vs. brute-force factor count, for every odd n in
    [7, n_max) and even s with n > 3s."""
    result = CheckResult("pentanomial parity: closed form vs factor count")
    return _sweep(result, _parity_column, range(7, n_max, 2), jobs)


def _thm1_column(n: int) -> tuple[int, list[str]]:
    checked = 0
    failures = []
    for s in _even_s_values(n):
        shape = PentShape(n, s)
        if not swan.thm1_reducible(shape):
            continue
        checked += 1
        if gf2poly.is_irreducible(gf2poly.pent_poly(shape)):
            failures.append(f"(n={n}, s={s}): certified reducible but irreducible")
    return checked, failures


def thm1_soundness(n_max: int = 500, jobs: int | None = 1) -> CheckResult:
    """Every shape certified reducible by the closed form must fail the
    irreducibility test; covers both parities of n (even s only)."""
    result = CheckResult("reducibility certificates vs irreducibility test")
    return _sweep(result, _thm1_column, range(7, n_max), jobs)


def _disc_column(n: int) -> tuple[int, list[str]]:
    failures = []
    for s in _even_s_values(n):
        shape = PentShape(n, s)
        F = zpoly.lift(gf2poly.pent_poly(shape))
        closed = swan.pent_discriminant_closed_form(shape)
        exact = zpoly.discriminant_mod8(F)
        classical = zpoly.discriminant(F) % 8
        if not closed == exact == classical:
            failures.append(
                f"(n={n}, s={s}): closed {closed}, resultant {exact}, "
                f"derivative {classical}"
            )
    return len(_even_s_values(n)), failures


def discriminant_agreement(n_max: int = 60, jobs: int | None = 1) -> CheckResult:
    """Closed-form discriminant residue vs. the exact resultant route (both
    the root-product form and the classical derivative form), for odd n <=
    n_max, even s."""
    result = CheckResult("discriminant mod 8: closed form vs exact resultant")
    return _sweep(result, _disc_column, range(7, n_max + 1, 2), jobs)


def _trinomial_column(n: int) -> tuple[int, list[str]]:
    failures = []
    ks = range(1 + n % 2, n, 2)  # 0 < k < n, exactly one of n, k odd
    for k in ks:
        predicted = swan.trinomial_parity(n, k).parity
        observed = gf2poly.factor_count(gf2poly.BitPoly.from_exponents([n, k, 0])).parity
        if predicted != observed:
            failures.append(f"(n={n}, k={k}): predicted {predicted}, observed {observed}")
    return len(ks), failures


def trinomial_agreement(n_max: int = 300, jobs: int | None = 1) -> CheckResult:
    """Swan's trinomial cases vs. brute-force parity of X^n + X^k + 1 for
    all n <= n_max, 0 < k < n, exactly one of n, k odd."""
    result = CheckResult("trinomial parity: closed form vs factor count")
    return _sweep(result, _trinomial_column, range(2, n_max + 1), jobs)


def _powersum_column(n: int, pair_max: int) -> tuple[int, list[str]]:
    failures = []
    deep = n <= pair_max
    for s in _even_s_values(n):
        F = zpoly.lift(gf2poly.pent_poly(PentShape(n, s)))
        table = zpoly.power_sums(F, 2 * n - 2 * s if deep else 2 * n - 4 * s)
        bad = []
        if any(table[n - k * s] != 0 for k in (1, 2, 3)):
            bad.append("S_{n-ks} != 0")
        if table[2 * n - 4 * s] % 2:
            bad.append("S_{2n-4s} odd")
        if deep:
            if table[2 * n - 2 * s] != table[2 * n - 6 * s]:
                bad.append("S_{2n-2s} != S_{2n-6s}")
            if zpoly.second_power_sums(table, n - s) != zpoly.second_power_sums(
                table, n - 3 * s
            ):
                bad.append("T_{n-s} != T_{n-3s}")
        if bad:
            failures.append(f"(n={n}, s={s}): {', '.join(bad)}")
    return len(_even_s_values(n)), failures


def power_sum_identities(
    n_max: int = 200, pair_max: int = 120, jobs: int | None = 1
) -> CheckResult:
    """Exact power-sum identities of the pentanomial lift, for odd n and
    even s: S_{n-s} = S_{n-2s} = S_{n-3s} = 0 and S_{2n-4s} even for
    n < n_max; S_{2n-2s} = S_{2n-6s} and T_{n-s} = T_{n-3s} for n <= pair_max."""
    result = CheckResult("power-sum identities of the pentanomial lift")
    column = partial(_powersum_column, pair_max=pair_max)
    return _sweep(result, column, range(7, n_max, 2), jobs)


def run_all(
    parity_max: int = 500,
    thm1_max: int = 500,
    disc_max: int = 60,
    trinomial_max: int = 300,
    powersum_max: int = 200,
    pair_max: int = 120,
    jobs: int | None = 1,
) -> list[CheckResult]:
    """The five suites in order, all on one pool at ``jobs`` > 1."""
    # called by their module names, which benchmarks/workloads.py patches
    # to time each suite
    with shared_pool(jobs):
        return [
            pent_parity_agreement(parity_max, jobs),
            thm1_soundness(thm1_max, jobs),
            discriminant_agreement(disc_max, jobs),
            trinomial_agreement(trinomial_max, jobs),
            power_sum_identities(powersum_max, pair_max, jobs),
        ]
