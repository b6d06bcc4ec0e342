"""Kernel probes: gf2poly's public functions on pinned inputs.

Squaring: ``pow_frobenius(m, k)`` runs k modular squarings of the
pentanomial m, so its time over k is the cost of one squaring-chain step.
gcd and mul run on dense polynomials of a given bit length drawn from a
fixed generator, not from the workload seed.  Each probe reports the median
of ``REPS`` timed batches.
"""

from __future__ import annotations

import random
import statistics
import time

REPS = 5
# name -> (n, s, k squarings)
SQUARING = {
    "n501_s2": (501, 2, 501),
    "n501_s166": (501, 166, 501),
    "n2999_s2": (2999, 2, 300),
    "n2999_s998": (2999, 998, 300),
}
DENSE_BITS = {"b500": 500, "b3000": 3000}


def _median_seconds(fn, calls: int, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t) / calls)
    return statistics.median(samples)


def run(lib, tiny: bool = False) -> dict[str, float]:
    """Probe name -> microseconds per operation."""
    gf2poly = lib.gf2poly
    reps = 1 if tiny else REPS
    out = {}
    for name, (n, s, k) in SQUARING.items():
        m = gf2poly.pent_poly(gf2poly.PentShape(n, s))
        k = min(k, 20) if tiny else k
        out[f"gf2poly.probe.sqr_mod_us.{name}"] = (
            _median_seconds(lambda: gf2poly.pow_frobenius(m, k), 1, reps) / k * 1e6
        )
    rng = random.Random("gf2poly kernel probes")
    for name, bits in DENSE_BITS.items():
        a, b = (gf2poly.BitPoly(rng.getrandbits(bits) | 1 << (bits - 1) | 1) for _ in range(2))
        calls = 2 if tiny else max(10, 20_000 // bits)
        out[f"gf2poly.probe.gcd_us.{name}"] = (
            _median_seconds(lambda: gf2poly.gcd(a, b), calls, reps) * 1e6
        )
        out[f"gf2poly.probe.mul_us.{name}"] = (
            _median_seconds(lambda: gf2poly.mul(a, b), calls, reps) * 1e6
        )
    return out
