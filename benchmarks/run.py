"""Run one pentaswan benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload survey_hard --seed 1 --seconds 15 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
provenance (host, Python, commit, seed, sample counts, verdict digests).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: rounds run
until ``--seconds`` have passed, after one warm-up round, and timings are
medians over rounds.  ``--trace 1`` reports the per-layer metrics: a fixed
number of rounds run in-process at jobs=1, alternately untraced and traced,
the same rounds untraced at the workload's pool width, and the kernel
probes.

Exit status: 0 when every output passed its correctness gate, 1 when one
did not (the result line then has ``"correct": false``), 2 when the library
or its reference data cannot be loaded (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter

import probes
import workloads
from tracer import Tracer, boundaries

SETUPS = 9
REFERENCE_BLOCK = 20  # host_reference calls per host-speed reading
MIN_ROUNDS = 3
BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def setup(name: str, seed: int, tiny: bool):
    """Import pentaswan, load the reference table and generate the inputs."""
    t = time.perf_counter()
    lib = workloads.Library()
    workload = workloads.WORKLOADS[name](lib, workloads.load_reference(), seed, tiny)
    return time.perf_counter() - t, lib, workload


def reference_block(_=None) -> float:
    """Seconds taken by a block of host_reference calls."""
    t = time.perf_counter()
    for _ in range(REFERENCE_BLOCK):
        workloads.host_reference()
    return time.perf_counter() - t


def host_speed(took: float | None = None) -> float:
    """Nominal over measured time of a block of host_reference calls:
    above 1 when the host runs fast, below 1 when it is slowed."""
    if took is None:
        took = reference_block()
    return REFERENCE_BLOCK * workloads.REFERENCE_NOMINAL_S / took


class Pass:
    """Rounds run back to back at one pool width.  Keeps per-round timings
    and totals of the rest, so that memory grows little with the rounds.

    The host's speed drifts by up to 2x over tens of seconds.  Where a
    round interleaves host_reference calls with its items, its throughput
    and times are also kept scaled to the host's nominal speed (``rates``,
    ``scaled_walls``, ``scaled_cpus``).  ``walls`` and ``cpus`` stay as
    measured, less those calls.  A round run in a pool stays as measured
    here: one reference reading is too noisy to scale a single round by,
    so run_for scales the run as a whole instead."""

    def __init__(self, keep_samples: bool = False):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.rates: list[float] = []
        self.scaled_walls: list[float] = []
        self.scaled_cpus: list[float] = []
        self.raw_rates: list[float] = []
        self.pool_readings: list[float] = []  # see run_for
        self.sums: Counter = Counter()
        self.attempted = self.errors = 0
        self.failures: list[str] = []
        self.shape_ms: list[float] | None = [] if keep_samples else None
        self._digest = hashlib.sha256()

    def run(self, workload, index: int, jobs: int) -> None:
        inputs = workload.rounds[index % len(workload.rounds)]
        cpu, t = cpu_seconds(), time.perf_counter()
        out = workload.run_round(inputs, jobs)
        wall = time.perf_counter() - t
        cpu = cpu_seconds() - cpu
        stats = workload.check(inputs, out)
        speed = cpu_speed = 1.0
        if stats.host_time:
            calls, ref_wall, ref_cpu = stats.host_time
            nominal = calls * workloads.REFERENCE_NOMINAL_S
            wall, cpu = wall - ref_wall, cpu - ref_cpu
            speed, cpu_speed = nominal / ref_wall, nominal / ref_cpu
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.raw_rates.append(stats.items / wall)
        self.rates.append(stats.items / (wall * speed))
        self.scaled_walls.append(wall * speed)
        self.scaled_cpus.append(cpu * cpu_speed)
        self.sums.update(stats.sums)
        self.attempted += stats.attempted
        self.errors += stats.errors
        self.failures += stats.failures
        self._digest.update("".join(v + "\n" for v in stats.verdicts).encode())
        if self.shape_ms is not None:
            self.shape_ms += stats.shape_ms

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def run_rounds(workload, count: int, jobs: int, keep_samples: bool = False) -> Pass:
    p = Pass(keep_samples)
    for i in range(count):
        p.run(workload, i, jobs)
    return p


def run_for(workload, seconds: float) -> Pass:
    """Rounds until ``seconds`` have passed.  Before each round of a pool
    workload, one reference block runs in each of ``jobs`` processes at
    once, so that the run's median host speed on all the CPUs the pool
    uses is known."""
    p = Pass()
    readers = multiprocessing.get_context("fork").Pool(workload.jobs) if workload.jobs > 1 else None
    try:
        end = time.perf_counter() + seconds
        while len(p.walls) < MIN_ROUNDS or time.perf_counter() < end:
            if readers:
                p.pool_readings.append(statistics.mean(
                    readers.map(reference_block, range(workload.jobs))))
            p.run(workload, len(p.walls), workload.jobs)
    finally:
        if readers:
            readers.close()
            readers.join()
    return p


def end_to_end(timed: Pass, setups: list[float]) -> dict[str, float]:
    """Throughput and CPU time are medians over the rounds, scaled to the
    host's nominal speed: round by round where the rounds interleave
    host_reference calls (see Pass), else by the run's median reading on
    all the pool's CPUs (see run_for).  Set-up is always single-process,
    and each set-up is scaled by a block of host_reference calls right
    after it."""
    rate = statistics.median(timed.rates)
    cpu = statistics.median(timed.scaled_cpus)
    if timed.pool_readings:
        speed = host_speed(statistics.median(timed.pool_readings))
        rate, cpu = rate / speed, cpu * speed
    return {
        "items_per_s": rate,
        "setup_s": statistics.median(setups),
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, pool: Pass, untraced: Pass, traced: Pass, tracer: Tracer,
              kernel: dict[str, float]) -> dict[str, float]:
    m: dict[str, float] = {}
    total = pool.sums
    rounds = len(pool.walls)
    counts = {o: total[f"outcome.{o}.count"] for o in workloads.OUTCOMES}
    for o, count in counts.items():
        m[f"search.outcome.{o}.count"] = count
        m[f"search.outcome.{o}.ms_mean"] = total[f"outcome.{o}.ms"] / count if count else 0.0
    tested = counts["red_smallfac"] + counts["red_full"] + counts["irr"]
    m["search.prefilter.retired_frac"] = counts["red_smallfac"] / tested if tested else 0.0
    for d in range(1, workloads.PREFILTER_DEPTH + 1):
        m[f"search.prefilter.bound.d{d}"] = total[f"bound.d{d}"]
    shape_ms = pool.shape_ms
    cuts = statistics.quantiles(shape_ms, n=100) if len(shape_ms) > 1 else [0.0] * 99
    m["search.shape_ms.p50"] = cuts[49]
    m["search.shape_ms.p99"] = cuts[98]
    m["search.shape_ms.samples"] = len(shape_ms)
    wall = sum(pool.walls)
    m["search.pool.busy_frac"] = total["busy_ms"] / 1e3 / (workload.jobs * wall)
    is_verify = workload.name == "verify_suites"
    m["verify.pool.cpu_util"] = sum(pool.cpus) / (workload.jobs * wall) if is_verify else 0.0
    calls = total["stats_calls"]
    m["cli.stats_s"] = total["stats_s"] / calls if calls else 0.0
    m["cli.csv_bytes"] = total["csv_bytes"] / rounds
    for suite in workloads.SUITES:
        for key in ("wall_s", "checked"):
            m[f"verify.{suite}.{key}"] = total[f"verify.{suite}.{key}"] / rounds
    for name, (n_calls, self_s) in tracer.totals(boundaries(workload.lib)).items():
        m[f"{name}.calls"] = n_calls
        m[f"{name}.self_s"] = self_s
    m.update(kernel)
    m["trace.overhead_frac"] = sum(traced.scaled_walls) / sum(untraced.scaled_walls) - 1
    passes = {id(p): p for p in (pool, untraced, traced)}.values()
    m["error_frac"] = sum(p.errors for p in passes) / sum(p.attempted for p in passes)
    return m


def commit_id() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None when the
    checkout is not a repository."""
    git = workloads.ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((workloads.ROOT / "src" / "pentaswan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result object plus its provenance."""
    setups, unscaled_setups = [], []
    for _ in range(SETUPS):
        took, lib, workload = setup(name, seed, tiny)
        unscaled_setups.append(took)
        setups.append(took * host_speed())
    warmup = run_rounds(workload, 1, workload.jobs)
    passes = {"warmup": warmup}
    if not trace:
        passes["timed"] = timed = run_for(workload, seconds)
        metrics = end_to_end(timed, setups)
    else:
        k = 1 if tiny else workload.trace_rounds
        untraced, traced, tracer = Pass(keep_samples=workload.jobs == 1), Pass(), Tracer()
        for i in range(k):  # alternate, so that drift in host speed cancels
            untraced.run(workload, i, 1)
            with tracer.installed(lib):
                traced.run(workload, i, 1)
        if workload.jobs == 1:
            pool = untraced
        else:
            pool = run_rounds(workload, k, workload.jobs, keep_samples=True)
        passes.update(pool=pool, untraced=untraced, traced=traced)
        spans_file = workloads.OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_file)
        metrics = per_layer(workload, pool, untraced, traced, tracer, probes.run(lib, tiny))
    measured = list({id(p): p for key, p in passes.items() if key != "warmup"}.values())
    failures = [f for p in passes.values() for f in p.failures]
    digests = {key: p.digest for key, p in passes.items()}
    if trace and len({digests["pool"], digests["untraced"], digests["traced"]}) != 1:
        failures.append(f"verdict digests differ between passes: {digests}")
    readings = [r for p in measured for r in p.pool_readings]
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "digests": digests,
        "rounds": {key: len(p.walls) for key, p in passes.items()},
        "samples": {
            "setup_s": len(setups),
            "round_timings": sum(len(p.walls) for p in measured),
            "shape_ms": int(metrics.get("search.shape_ms.samples", 0)),
            "probe_reps": 1 if tiny else probes.REPS,
        },
        "skipped_nonsquarefree": sum(p.sums["skipped_nonsquarefree"] for p in measured),
        "unscaled_setup_s": statistics.median(unscaled_setups),
        "unscaled_round_rates": [r for p in measured for r in p.raw_rates],
        "pool_host_speed": host_speed(statistics.median(readings)) if readings else None,
        "failures": failures[:10],
    }
    if trace:
        provenance["spans_file"] = str(spans_file.relative_to(workloads.ROOT))
        provenance["untraced_boundaries"] = tracer.missing
    return {
        "correct": not failures,
        "attempted": sum(p.attempted for p in measured),
        "failed": sum(p.errors for p in measured),
        "metrics": metrics,
        "provenance": provenance,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = declared_metrics(bool(args.trace))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError) as e:
        print(f"cannot set up the benchmark: {e!r}", file=sys.stderr)
        return 2
    metrics = result.pop("metrics")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    print(json.dumps({"provenance": result.pop("provenance")}))
    print(json.dumps(result))
    if not result["correct"]:
        print("correctness gate failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
