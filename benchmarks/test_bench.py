"""Fast self-tests of the benchmark, on tiny sizes of each workload.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

NAMES = sorted(workloads.WORKLOADS)

# a boundary each workload's traced run must cross
TRACED_BOUNDARY = {
    "survey_hard": "gf2poly.prefilter.calls",
    "survey_wide": "gf2poly.is_irreducible.calls",
    "verify_suites": "gf2poly.factor_count.calls",
    "disc_bridge": "zpoly.resultant.calls",
}


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_is_clean_and_reports_the_declared_metrics(name):
    result = run.measure(name, seed=1, seconds=0, trace=False, tiny=True)
    assert result["correct"], result["provenance"]["failures"]
    assert result["attempted"] > 0 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.declared_metrics(trace=False))
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_with_the_untraced_digest(name):
    result = run.measure(name, seed=1, seconds=0, trace=True, tiny=True)
    assert result["correct"], result["provenance"]["failures"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.declared_metrics(trace=True))
    assert metrics[TRACED_BOUNDARY[name]] > 0
    assert metrics["error_frac"] == 0
    digests = result["provenance"]["digests"]
    assert digests["pool"] == digests["untraced"] == digests["traced"]
    assert result["provenance"]["untraced_boundaries"] == []


@pytest.mark.parametrize("name", NAMES)
def test_second_seed_changes_the_inputs_and_passes(name):
    first = run.setup(name, 1, tiny=True)[2]
    second = run.setup(name, 2, tiny=True)[2]
    if name == "verify_suites":
        assert first.rounds == second.rounds  # fixed sweeps; the seed is only recorded
    else:
        assert first.rounds != second.rounds
    result = run.measure(name, seed=2, seconds=0, trace=False, tiny=True)
    assert result["correct"], result["provenance"]["failures"]


def _flip_irreducible(lib):
    real = lib.gf2poly.is_irreducible
    return lib.gf2poly, "is_irreducible", lambda p: not real(p)


def _miscount_factors(lib):
    real = lib.gf2poly.factor_count
    return lib.gf2poly, "factor_count", lambda p: real(p)._replace(
        parity="odd" if real(p).parity == "even" else "even")


def _shift_discriminant(lib):
    real = lib.zpoly.discriminant_mod8
    return lib.zpoly, "discriminant_mod8", lambda F: (real(F) + 4) % 8


PLANTED = {
    "survey_hard": _flip_irreducible,
    "survey_wide": _flip_irreducible,
    "verify_suites": _miscount_factors,
    "disc_bridge": _shift_discriminant,
}


@pytest.mark.parametrize("name", NAMES)
def test_planted_wrong_verdict_trips_the_gate(name, monkeypatch):
    _, lib, workload = run.setup(name, 1, tiny=True)
    monkeypatch.setattr(*PLANTED[name](lib))
    inputs = workload.rounds[0]
    # jobs=1 keeps the work in this process, where the patch is visible
    stats = workload.check(inputs, workload.run_round(inputs, 1))
    assert stats.failures


def test_a_raising_call_is_an_error_not_a_wrong_answer(monkeypatch):
    _, lib, workload = run.setup("disc_bridge", 1, tiny=True)

    def broken(F):
        raise ArithmeticError("planted")

    monkeypatch.setattr(lib.zpoly, "discriminant_mod8", broken)
    inputs = workload.rounds[0]
    stats = workload.check(inputs, workload.run_round(inputs, 1))
    assert stats.failures == []
    assert stats.errors == sum(1 for *_, squarefree in inputs if squarefree)


@pytest.mark.parametrize("name", ["survey_hard", "disc_bridge"])
def test_in_process_rounds_interleave_one_host_reference_per_item(name):
    _, lib, workload = run.setup(name, 1, tiny=True)
    inputs = workload.rounds[0]
    stats = workload.check(inputs, workload.run_round(inputs, 1))
    calls, wall, cpu = stats.host_time
    assert calls == len(inputs) and wall > 0 and cpu > 0
    p = run.Pass()
    p.run(workload, 0, 1)
    assert p.walls[0] > 0 and p.rates[0] * p.scaled_walls[0] == pytest.approx(stats.items)


def test_host_reference_is_fixed_work():
    assert workloads.host_reference() == workloads.host_reference()
    assert run.host_speed() > 0


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "disc_bridge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert "correct" not in json.loads(line)
