import math
import os
import random
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

from pentaswan import _pool, gf2poly, search
from pentaswan.gf2poly import (
    BitPoly,
    PentShape,
    ShapeError,
    factor_count,
    gcd,
    is_irreducible,
    is_squarefree,
    mul,
    pent_poly,
    pow_frobenius,
)
from pentaswan.search import enumerate_shapes

import oracles

ZERO, ONE, X = BitPoly(0), BitPoly(1), BitPoly(2)


def rem(a, m):
    """a mod m on BitPolys, through the raw kernel ``_rem``."""
    return BitPoly(gf2poly._rem(a.bits, m.bits))


def rand_poly(rng, max_deg, min_deg=1):
    deg = rng.randrange(min_deg, max_deg + 1)
    return BitPoly((1 << deg) | rng.getrandbits(deg))


# --- shapes and construction -------------------------------------------------

def test_pent_poly_examples():
    assert pent_poly(PentShape(7, 2)) == BitPoly.from_exponents([7, 5, 3, 1, 0])
    assert pent_poly(PentShape(25, 6)) == BitPoly.from_exponents([25, 19, 13, 7, 0])


@pytest.mark.parametrize("n,s", [(7, 3), (7, 0), (6, 1), (9, 3), (12, 4)])
def test_invalid_shapes_rejected(n, s):
    with pytest.raises(ShapeError):
        PentShape(n, s)


def test_pent_poly_has_five_distinct_terms():
    for n in range(7, 60):
        for s in range(1, (n - 1) // 3 + 1):
            assert pent_poly(PentShape(n, s)).bits.bit_count() == 5


# --- reciprocal ---------------------------------------------------------------

def reciprocal(p: BitPoly) -> BitPoly:
    """X^deg(p) * p(1/X), through ``oracles.reverse_bits``."""
    return BitPoly(oracles.reverse_bits(p.bits))


def test_reciprocal_examples():
    # the examples keep the oracle's reversal from passing as the identity,
    # which the involution alone would not
    assert reciprocal(pent_poly(PentShape(7, 2))) == BitPoly.from_exponents([7, 6, 4, 2, 0])
    palindrome = BitPoly(0b111)
    assert reciprocal(palindrome) == palindrome
    assert reciprocal(X) == ONE


def test_reciprocal_involution_and_degree():
    rng = random.Random(101)
    for _ in range(200):
        p = BitPoly(rand_poly(rng, 40).bits | 1)  # force constant term
        assert reciprocal(reciprocal(p)) == p
        assert reciprocal(p).degree == p.degree


def test_reciprocal_maps_pentanomial_to_mirror_shape():
    p = pent_poly(PentShape(13, 4))
    assert reciprocal(p) == BitPoly.from_exponents([13, 12, 8, 4, 0])


# --- ring arithmetic ----------------------------------------------------------

def test_arithmetic_examples():
    assert mul(BitPoly(0b11), BitPoly(0b11)) == BitPoly(0b101)
    assert gf2poly._deriv(0b10101) == 0
    assert gcd(BitPoly(0b101), BitPoly(0b11)) == BitPoly(0b11)


def test_rem_mul_compatibility():
    rng = random.Random(7)
    for _ in range(300):
        a, b, m = rand_poly(rng, 50), rand_poly(rng, 50), rand_poly(rng, 30)
        assert rem(mul(a, b), m) == rem(mul(rem(a, m), rem(b, m)), m)


def test_gcd_divides_and_commutes():
    rng = random.Random(8)
    for _ in range(300):
        a, b = rand_poly(rng, 40), rand_poly(rng, 40)
        g = gcd(a, b)
        assert gcd(a, b) == gcd(b, a)
        assert rem(a, g) == ZERO and rem(b, g) == ZERO


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        rem(X, ZERO)
    with pytest.raises(ValueError):
        gcd(ZERO, ZERO)
    assert gcd(ZERO, X) == X


def test_derivative_kills_even_exponents():
    rng = random.Random(9)
    for _ in range(100):
        p = rand_poly(rng, 30)
        expected = BitPoly.from_exponents(e - 1 for e in p.exponents() if e % 2)
        assert gf2poly._deriv(p.bits) == expected.bits


# --- squarefreeness -----------------------------------------------------------

def test_is_squarefree_examples():
    assert not is_squarefree(BitPoly(0b10101))  # (X^2+X+1)^2
    assert is_squarefree(BitPoly(0b111))
    assert is_squarefree(pent_poly(PentShape(7, 2)))


# --- Frobenius ----------------------------------------------------------------

def test_pow_frobenius_examples():
    m = BitPoly(0b111)
    assert pow_frobenius(m, 1) == BitPoly(0b11)
    assert pow_frobenius(m, 2) == X
    assert pow_frobenius(BitPoly(0b1011), 0) == X


def test_pow_frobenius_additivity():
    rng = random.Random(11)
    for _ in range(40):
        m = rand_poly(rng, 20, min_deg=2)
        j, k = rng.randrange(0, 8), rng.randrange(0, 8)
        direct = pow_frobenius(m, j + k)
        # square the j-th power k more times mod m
        step = pow_frobenius(m, j)
        for _ in range(k):
            step = rem(mul(step, step), m)
        assert step == direct


@pytest.mark.parametrize("n, s", [(501, 2), (501, 166), (2999, 2), (2999, 998)])
def test_pow_frobenius_matches_naive_chain_on_probe_pentanomials(n, s):
    # the benchmark's squaring probes, at production degrees, and their mirrors
    p = pent_poly(PentShape(n, s))
    for m in (p, reciprocal(p)):
        h = oracles.poly_divmod_bits(2, m.bits)[1]
        for k in range(17):
            assert pow_frobenius(m, k).bits == h, (m, k)
            h = oracles.poly_divmod_bits(oracles.naive_square(h), m.bits)[1]


# --- irreducibility and factor counting ---------------------------------------

def test_is_irreducible_examples():
    assert is_irreducible(pent_poly(PentShape(7, 2)))
    assert not is_irreducible(pent_poly(PentShape(11, 2)))
    assert not is_irreducible(pent_poly(PentShape(9, 2)))


def test_is_irreducible_exhaustive_small_degrees():
    for bits in range(2, 1 << 10):
        expected = len(oracles.naive_factors(bits)) == 1
        assert is_irreducible(BitPoly(bits)) == expected, bin(bits)


def test_factor_count_examples():
    assert factor_count(BitPoly(0b111)) == (1, "odd")
    assert factor_count(BitPoly(0b10101)) == (2, "even")
    # frozen via trial division: degrees {3, 8} and {2, 3, 4}
    assert factor_count(pent_poly(PentShape(11, 2))) == (2, "even")
    assert factor_count(pent_poly(PentShape(9, 2))) == (3, "odd")


def test_factor_count_matches_trial_division():
    rng = random.Random(12)
    for _ in range(250):
        p = rand_poly(rng, 20)
        if rng.random() < 0.3:
            p = mul(p, p)
        elif rng.random() < 0.3:
            p = mul(p, rand_poly(rng, 10))
        assert factor_count(p).total == len(oracles.naive_factors(p.bits)), p


def test_factor_count_agrees_with_irreducibility():
    rng = random.Random(13)
    for _ in range(250):
        p = rand_poly(rng, 64)
        assert is_irreducible(p) == (factor_count(p).total == 1), p


def test_reciprocal_preserves_irreducibility():
    rng = random.Random(14)
    for _ in range(150):
        p = BitPoly(rand_poly(rng, 40).bits | 1)
        assert is_irreducible(p) == is_irreducible(reciprocal(p)), p


# --- Berlekamp factor count, against the distinct-degree oracle -----------------

def ranked_quotients(f):
    """The squarefree quotients f / gcd(f, f') that factor_count ranks."""
    while f != 1:
        c = gf2poly._gcd(f, gf2poly._deriv(f))
        yield gf2poly._divmod(f, c)[0]
        f = gf2poly._sqrt(c)


def test_berlekamp_count_matches_ddf_and_trial_division(reference_pool):
    rng = random.Random(26)
    polys = [pent_poly(shape).bits for shape in enumerate_shapes(7, 200)]  # C1's shapes
    polys += [(1 << n) | (1 << k) | 1 for n in range(2, 120) for k in range(1, n)]
    polys += [(1 << d) | rng.getrandbits(d) for d in (rng.randrange(1, 300) for _ in range(500))]
    polys += range(2, 1 << 9)  # every polynomial of degree 1-8
    parts = sorted({g for p in polys for g in ranked_quotients(p)})
    assert len(parts) > 7500
    ddf = reference_pool.map(oracles.ddf_count_factors_squarefree, parts, chunksize=16)
    for g, expected in zip(parts, ddf):
        count = gf2poly._count_factors_squarefree(g)
        assert count == expected, g
        if g.bit_length() <= 21:
            assert count == len(oracles.naive_factors(g)), g


def power(p, e):
    out = 1
    for _ in range(e):
        out = gf2poly._mul(out, p)
    return out


KNOWN_IRREDUCIBLES = {  # degree -> an irreducible of that degree
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    14: (1 << 14) | (1 << 10) | (1 << 6) | (1 << 1) | 1,
    23: (1 << 23) | (1 << 5) | 1,
    2401: pent_poly(PentShape(2401, 388)).bits,  # a table2 pair
}


def test_known_irreducibles_are_irreducible():
    for d, p in KNOWN_IRREDUCIBLES.items():
        assert is_irreducible(BitPoly(p)), d
        if d <= 23:
            assert oracles.naive_factors(p) == [p], d
    assert (2401, 388) in oracles.table2_pairs(2401)


def test_factor_count_with_multiplicity():
    # P^e * Q^f for distinct irreducibles P, Q has e + f factors; when e = f
    # the loop ranks one squarefree quotient P * Q of two factors
    irreducibles = list(KNOWN_IRREDUCIBLES.values())
    for i, P in enumerate(irreducibles):
        for Q in irreducibles[i + 1:]:
            for e in range(1, 5):
                for f in range(1, 5):
                    p = BitPoly(gf2poly._mul(power(P, e), power(Q, f)))
                    assert factor_count(p).total == e + f, (P.bit_length() - 1, e,
                                                            Q.bit_length() - 1, f)


def test_factor_count_at_every_weight_up_to_8():
    # exponents up to 8 run the loop at weights 1, 2, 4 and 8
    P, Q, R = KNOWN_IRREDUCIBLES[2], KNOWN_IRREDUCIBLES[3], KNOWN_IRREDUCIBLES[14]
    for a in range(1, 9):
        for b in range(1, 9):
            for c in range(1, 9):
                p = gf2poly._mul(gf2poly._mul(power(P, a), power(Q, b)), power(R, c))
                assert factor_count(BitPoly(p)).total == a + b + c, (a, b, c)
    for k in range(1, 10):  # X^k: the factor X has p(0) = 0
        assert factor_count(BitPoly(1 << k)).total == k, k
    p = gf2poly._mul(power(KNOWN_IRREDUCIBLES[2401], 3), power(KNOWN_IRREDUCIBLES[2], 5))
    assert factor_count(BitPoly(p)) == (8, "even")


def test_factor_count_of_pentanomial_powers():
    # with n and s even, pent(n, s) = pent(n/2, s/2)^2 in characteristic 2
    for n, s, root, e in ((14, 4, (7, 2), 2), (28, 8, (7, 2), 4),
                          (4802, 776, (2401, 388), 2), (9604, 1552, (2401, 388), 4)):
        p = pent_poly(PentShape(n, s))
        assert p.bits == power(pent_poly(PentShape(*root)).bits, e), (n, s)
        assert factor_count(p) == (e, "even"), (n, s)
    p = pent_poly(PentShape(18, 4))  # pent(9, 2)^2, three factors squared
    assert factor_count(p) == (6, "even") and len(oracles.naive_factors(p.bits)) == 6


# --- squaring chain, differential against the oracles ---------------------------

def test_sqr_matches_naive_square():
    rng = random.Random(21)
    boundaries = {8 * k + e for k in range(1, 17) for e in (-1, 0, 1)}
    for bits in sorted(set(range(71)) | boundaries | {500, 3000}):
        values = [(1 << bits) - 1]
        values += [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(3)] if bits else []
        for a in values:
            assert gf2poly._sqr(a) == oracles.naive_square(a), (bits, a)


def equally_gapped(p: int) -> bool:
    """Whether p is X^n + X^(n-s) + X^(n-2s) + X^(n-3s) + 1 with n > 3s,
    the only input that the prefilter tests."""
    e = BitPoly(p).exponents()
    return len(e) == 5 and e[4] == 0 and e[0] - e[1] == e[1] - e[2] == e[2] - e[3]


def factor_degrees(p: int) -> list[int]:
    """The degrees of p's irreducible factors, ascending, by trial division;
    p's reciprocal has the same."""
    return sorted(f.bit_length() - 1 for f in oracles.naive_factors(p))


def expected_by_trial_division(p: int, degrees: list[int]) -> tuple[int | None, int | None]:
    """What the prefilter and ``prefilter_then_survivor`` must return on p,
    from its factor degrees: the smallest, d <= 13, from the prefilter on an
    equally gapped p; else None from it, and deg(p) or None from the
    survivor decision.  The second is deg(p) iff p is irreducible."""
    if equally_gapped(p) and degrees[0] <= 13:
        return degrees[0], degrees[0]
    return None, degrees[0] if len(degrees) == 1 else None


def prefilter_then_survivor(p: int) -> int | None:
    """The prefilter's degree; for a survivor, deg(p) if the survivor
    decision calls p irreducible, else None."""
    d = gf2poly._smallest_factor_degree_le(p)
    if d is None and gf2poly._survivor_is_irreducible(p):
        return p.bit_length() - 1
    return d


def test_prefilter_and_survivor_decision_match_oracle_on_every_shape_below_200(
        reference_pool):
    shapes = [shape for parity in ("even", "odd")
              for shape in enumerate_shapes(7, 200, parity, "all")]
    polys = [pent_poly(shape).bits for shape in shapes]
    naive = reference_pool.map(
        partial(oracles.naive_smallest_factor_degree, depth=13), polys, chunksize=64)
    for shape, p, expected in zip(shapes, polys, naive):
        assert prefilter_then_survivor(p) == expected, shape


def test_prefilter_and_survivor_decision_match_trial_division_on_p_and_its_reciprocal():
    # the few equally gapped p among these take the root test; the prefilter
    # leaves every other one, and the survivor decision alone decides it
    rng = random.Random(22)
    gapped = 0
    for i in range(60):
        deg = rng.randrange(1, 41)
        if i % 2:  # sparse, like the survey's pentanomials
            exps = {deg, 0, *rng.sample(range(1, deg), min(deg - 1, rng.randrange(1, 6)))}
            p = BitPoly.from_exponents(exps)
        else:
            p = BitPoly((1 << deg) | rng.getrandbits(deg) | 1)
        degrees = factor_degrees(p.bits)
        for q in (p, reciprocal(p)):
            prefilter, decision = expected_by_trial_division(q.bits, degrees)
            assert gf2poly._smallest_factor_degree_le(q.bits) == prefilter, q
            assert prefilter_then_survivor(q.bits) == decision, q
            assert is_irreducible(q) == (decision == deg), q
            gapped += equally_gapped(q.bits)
    assert gapped > 0  # X^4 + X^3 + X^2 + X + 1 and X^5 + X^4 + X^3 + X^2 + 1


# --- the survivor decision, against the slow paths it replaces ---------------

# degrees, all above the prefilter depth, of the irreducibles g in g * P below
FACTOR_DEGREES = (14, 15, 20, 23, 29, 31, 37)


def random_irreducible(rng, degree):
    while True:
        g = (1 << degree) | rng.getrandbits(degree) | 1
        if oracles.naive_smallest_factor_degree(g, 0) == degree:
            return g


def table2_products():
    """(n, s, g, g * P) with P = pent(n, s) a table2 irreducible of degree
    >= 721, and g either X or a seeded irreducible of a FACTOR_DEGREES degree."""
    rng = random.Random(24)
    table = oracles.table2_pairs(721)
    cases = [2] + [random_irreducible(rng, d) for d in FACTOR_DEGREES]
    out = []
    for i, g in enumerate(cases):
        n, s = table[i * len(table) // len(cases)]
        out.append((n, s, g, gf2poly._mul(g, pent_poly(PentShape(n, s)).bits)))
    return out


def test_products_with_a_table2_irreducible_are_reducible(monkeypatch):
    # g * P, with g X or an irreducible of degree > 13, is no equally gapped
    # pentanomial: the prefilter leaves it, and only the squarefree gcd plus
    # Berlekamp's rank (two factors) decides it
    for n, s, g, p in table2_products():
        assert gf2poly._smallest_factor_degree_le(p) is None, (n, s, g)
        assert prefilter_then_survivor(p) is None, (n, s, g)
        assert not is_irreducible(BitPoly(p)), (n, s, g)
        assert gf2poly._count_factors_squarefree(p) == 2, (n, s, g)
        decided = []
        survivor = gf2poly._survivor_is_irreducible
        monkeypatch.setattr(gf2poly, "_survivor_is_irreducible",
                            lambda q: decided.append(q) or survivor(q))
        monkeypatch.setattr(gf2poly, "pent_poly", lambda shape: BitPoly(p))
        assert search.classify_shape(PentShape(n, s)) == ("red_full", None), (n, s, g)
        assert decided == [p], (n, s, g)  # p itself reached the rank
        monkeypatch.undo()


def test_non_squarefree_survivors_are_reducible():
    # P^3 and P^2 * Q with P, Q irreducible of degree > 13: the prefilter
    # finds nothing, and Berlekamp's rank alone counts one factor on P^3,
    # so only gcd(p, p') != 1 can call these reducible
    rng = random.Random(27)
    big = pent_poly(PentShape(*oracles.table2_pairs(721)[0])).bits
    small = random_irreducible(rng, 23)
    cube = power(big, 3)
    assert gf2poly._count_factors_squarefree(cube) == 1
    for q in (cube, power(small, 3), gf2poly._mul(power(big, 2), small),
              gf2poly._mul(power(small, 2), big)):
        assert prefilter_then_survivor(q) is None, q.bit_length() - 1
        assert not is_irreducible(BitPoly(q)), q.bit_length() - 1


def test_table2_irreducibles_above_720_stay_irreducible():
    for n, s in random.Random(25).sample(oracles.table2_pairs(721), 8):
        p = pent_poly(PentShape(n, s))
        assert prefilter_then_survivor(p.bits) == n, (n, s)
        assert is_irreducible(p), (n, s)
        assert search.classify_shape(PentShape(n, s)) == ("irr", None), (n, s)


def production_survivors(rng, count):
    """Seeded even-s shapes with n in [2401, 3000), n = +-1 (mod 8), that
    the depth-13 prefilter does not settle."""
    columns = [n for n in range(2401, 3000) if n % 8 in (1, 7)]
    out = []
    while len(out) < count:
        n = rng.choice(columns)
        s = 2 * rng.randrange(1, (n - 1) // 6 + 1)
        p = pent_poly(PentShape(n, s)).bits
        if gf2poly._smallest_factor_degree_le(p) is None:
            out.append((n, s))
    return out


def production_shapes():
    """24 seeded table2 irreducibles with n >= 2401, then 48 production survivors."""
    rng = random.Random(28)
    return rng.sample(oracles.table2_pairs(2401), 24) + production_survivors(rng, 48)


def test_survivor_decision_matches_rabin_chain_at_production_degrees(reference_pool):
    shapes = production_shapes()
    polys = [pent_poly(PentShape(n, s)).bits for n, s in shapes]
    chain = reference_pool.map(partial(oracles.rabin_smallest_factor_degree, depth=13), polys)
    verdicts = [prefilter_then_survivor(p) for p in polys]
    for shape, verdict, expected in zip(shapes, verdicts, chain):
        assert verdict == expected, shape
    assert verdicts[:24] == [n for n, _ in shapes[:24]]
    assert None in verdicts[24:]


def test_rank_kernel_matches_the_dict_kernel_at_production_degrees():
    # the DDF oracle takes about 1 s a call at degree 3,000, so the kernel
    # that the seeded, list-indexed one replaced is the oracle here
    polys = [pent_poly(PentShape(n, s)).bits for n, s in production_shapes()]
    polys += [p for _, _, _, p in table2_products()]
    counts = [gf2poly._count_factors_squarefree(p) for p in polys]
    assert counts == [oracles.berlekamp_count_factors_squarefree(p) for p in polys]
    assert counts[:24] == [1] * 24 and counts[-8:] == [2] * 8


# --- small-factor prefilter ----------------------------------------------------

def test_has_factor_examples():
    prefilter = gf2poly._smallest_factor_degree_le
    assert prefilter(pent_poly(PentShape(7, 2)).bits) == 7  # irreducible, n <= 13
    # pent(13,2) factors into degrees {4, 9}
    assert prefilter(pent_poly(PentShape(13, 2)).bits) == 4
    # (X^2 + X + 1)^2 and X * pent(7, 2) are not equally gapped pentanomials:
    # the prefilter leaves them, and the survivor decision finds them reducible
    for p in (0b10101, pent_poly(PentShape(7, 2)).bits << 1):
        assert prefilter(p) is None, p
        assert not gf2poly._survivor_is_irreducible(p), p
        assert not is_irreducible(BitPoly(p)), p


def test_has_factor_matches_trial_division():
    # random p of degree 8..20, with p(0) = 0 for about half: the prefilter
    # leaves each one that is no equally gapped pentanomial, and the
    # survivor decision decides it
    rng = random.Random(15)
    for _ in range(150):
        p = rand_poly(rng, 20, min_deg=8)
        prefilter, decision = expected_by_trial_division(p.bits, factor_degrees(p.bits))
        assert gf2poly._smallest_factor_degree_le(p.bits) == prefilter, p
        assert prefilter_then_survivor(p.bits) == decision, p
        assert is_irreducible(p) == (decision == p.degree), p


# --- the prefilter's root test, against the chain it replaces on pentanomials ---

def pent_bits(n, s):
    # n > 3s; below n = 7 too, where PentShape refuses the shape
    return BitPoly.from_exponents((n, n - s, n - 2 * s, n - 3 * s, 0)).bits


def test_root_test_matches_the_chain_on_every_shape_below_300(reference_pool):
    # zero tolerance, on the same bits, against the oracle's squaring chain
    # to depth 13: either parity of n and s, s a unit mod 2^d - 1 or not,
    # n <= 13 where an irreducible p is found at d = n; every hit degree
    # 2..13 and survivors occur
    shapes = [(n, s) for n in range(4, 300) for s in range(1, (n - 1) // 3 + 1)]
    polys = [pent_bits(n, s) for n, s in shapes]
    chain = reference_pool.map(
        partial(oracles.rabin_smallest_factor_degree, depth=13, rabin=False), polys,
        chunksize=256)
    hits = set()
    for shape, p, expected in zip(shapes, polys, chain):
        d = gf2poly._smallest_factor_degree_le(p)
        assert d == expected, shape
        hits.add(d)
    assert len(shapes) == 14751 and hits == {None, *range(2, 14)}


@pytest.mark.parametrize("n", [2401, 2991, 2993, 2998, 2999])
def test_root_test_matches_the_chain_on_production_columns(reference_pool, n):
    # at n = 3000 the plain chain takes about 1 ms a shape; the oracle's
    # chain, with its folded gcds on 2^k - 1 bits, is the same slow path in
    # a quarter of the time.  The second reference is the loop over one
    # root per irreducible that the lookup per degree replaced.
    polys = [pent_bits(n, s) for s in range(1, (n - 1) // 3 + 1)]
    chain = reference_pool.map(
        partial(oracles.rabin_smallest_factor_degree, depth=13, rabin=False), polys, chunksize=64)
    survivors = 0
    for s, (p, expected) in enumerate(zip(polys, chain), 1):
        d = gf2poly._smallest_factor_degree_le(p)
        assert d == expected == oracles.coset_root_degree(n, s), (n, s)
        survivors += d is None
    assert survivors > 0


@pytest.fixture
def root_calls(monkeypatch):
    """Records (n, s, depth) of every call the prefilter makes to the root test."""
    calls = []
    root_degree = gf2poly._root_degree

    def recording(n, s, hi):
        calls.append((n, s, hi))
        return root_degree(n, s, hi)

    monkeypatch.setattr(gf2poly, "_root_degree", recording)
    return calls


def test_only_equally_gapped_pentanomials_take_the_root_test(root_calls):
    for n, s in [(13, 2), (25, 6), (40, 7), (34, 9), (61, 4), (127, 30)]:
        gaps = (n, n - s, n - 2 * s, n - 3 * s)
        near_misses = [
            BitPoly.from_exponents(gaps[:3] + (n - 3 * s - 1, 0)),  # unequal last gap
            BitPoly.from_exponents(gaps + (1,)),  # X^0 missing
            reciprocal(BitPoly.from_exponents(gaps + (0,))),  # n != 4s
        ]
        for q in near_misses:
            assert gf2poly._smallest_factor_degree_le(q.bits) is None, (q, n, s)
            # Rabin's criterion alone: n if q is irreducible, else None
            assert prefilter_then_survivor(q.bits) == (
                oracles.naive_smallest_factor_degree(q.bits, 0)), (q, n, s)
        assert root_calls == []
        p = pent_bits(n, s)
        assert prefilter_then_survivor(p) == oracles.naive_smallest_factor_degree(p, 13)
        assert root_calls == [(n, s, 13)]
        root_calls.clear()
    # the reciprocal of an equally gapped p with n = 4s is p itself
    p = pent_bits(20, 5)
    assert oracles.reverse_bits(p) == p
    assert gf2poly._smallest_factor_degree_le(p, 16) == (
        oracles.rabin_smallest_factor_degree(p, 16, rabin=False))
    assert root_calls == [(20, 5, 16)]


def divisors(L):
    return [h for h in range(1, L + 1) if L % h == 0]


def root_keys(d):
    """(h, w) of every row of degree d: w = (L/h) g for each h | L and g | h."""
    L = (1 << d) - 1
    return [(h, L // h * g) for h in divisors(L) for g in divisors(h)]


def x_power_mod(e, m):
    """X^e mod m, by square-and-multiply on plain remainders."""
    x = 1
    for bit in format(e, "b"):
        x = oracles.poly_divmod_bits(oracles.naive_square(x), m)[1]
        if bit == "1":
            x = oracles.poly_divmod_bits(x << 1, m)[1]
    return x


def test_root_tables_are_primitive_and_complete():
    assert len(gf2poly._PRIMITIVE) == gf2poly.ROOT_DEPTH - 1
    for d, exponents in enumerate(gf2poly._PRIMITIVE, 2):
        m, L = sum(1 << e for e in exponents), (1 << d) - 1
        assert m.bit_length() - 1 == d
        # X has order exactly L modulo m: X^L = 1, and X^(L/q) != 1 for
        # each prime q | L, so m is irreducible and X generates GF(2^d)*
        assert x_power_mod(L, m) == 1, d
        for q in oracles.prime_factors(L):
            assert x_power_mod(L // q, m) != 1, (d, q)
    # the pool's build makes every row of degree <= 13 and no other
    gf2poly._root_row.cache_clear()
    gf2poly._build_root_rows()
    keys = [(d, h, w) for d in range(2, 14) for h, w in root_keys(d)]
    assert gf2poly._root_row.cache_info().misses == len(keys) == 276
    rows = {key: gf2poly._root_row(*key) for key in keys}
    assert gf2poly._root_row.cache_info()[:2] == (276, 276)  # hits, misses
    assert [len(root_keys(d)) for d in range(2, 14)] == [3, 3, 9, 3, 18, 3, 27, 9, 27, 9, 162, 3]
    assert sum(len(row) for row in rows.values()) == 192236
    # where h = L, only t = 0 has t a = 0, so no row there marks anything
    for d in range(2, gf2poly.ROOT_DEPTH + 1):
        L = (1 << d) - 1
        for h, w in root_keys(d) if d <= 13 else [(1, L), (L, 1), (L, L)]:
            row = gf2poly._root_row(d, h, w)
            assert len(row) == w and set(row) <= {0, 1}, (d, h, w)
            assert any(row) == (h < L), (d, h, w)


def zech3(d):
    """3 Z(k) mod L for 0 < k < L and L at k = 0, by plain polynomial
    remainders, with gamma = X modulo the table's primitive polynomial."""
    m, L = sum(1 << e for e in gf2poly._PRIMITIVE[d - 2]), (1 << d) - 1
    power = [1]
    for _ in range(L - 1):
        power.append(oracles.poly_divmod_bits(power[-1] << 1, m)[1])
    log = [0] * (L + 1)
    for k, x in enumerate(power):
        log[x] = k
    return [L] + [3 * log[x ^ 1] % L for x in power[1:]]


def test_zech_tables_are_compact_and_exact():
    for d in range(2, gf2poly.ROOT_DEPTH + 1):
        z3 = gf2poly._zech3(d)
        assert z3.typecode == "I" and z3.tolist() == zech3(d), d


def test_orbit_leaders_are_compact_and_exact():
    # against a plain walk of each orbit {m 2^j mod M} into a set; at the
    # Mersenne prime M = 2^19 - 1, doubling rotates 19 bits, so every orbit
    # has 19 elements and its leader is the least rotation
    for M in (1, 3, 1365, 37449, 2**19 - 1):
        leaders, seen = [], set()
        for m in range(1, M):
            if m not in seen:
                leaders.append(m)
                while m not in seen:
                    seen.add(m)
                    m = 2 * m % M
        got = gf2poly._orbit_leaders(M)
        assert got.typecode == "I" and got.tolist() == leaders, M
    assert len(got) == (M - 1) // 19
    assert all(m == min(m << j & M | m >> 19 - j for j in range(19)) for m in got)


def test_zech_table_build_holds_no_power_table():
    # the build, uncached, peaks at its log and z3 tables, 4-byte entries
    # each, about 8 bytes per field element; a third table of powers would
    # take it to 12 or more
    d = 17
    tracemalloc.start()
    try:
        z3 = gf2poly._zech3.__wrapped__(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**d, peak
    assert z3.tolist() == zech3(d)


def test_root_table_lookup_matches_every_t_on_every_pair_up_to_degree_7():
    # for every (a, b) in (Z/L)^2, the one lookup of _root_degree against
    # "some t in [1, L) has z3[t a] = t b (mod L)"
    for d in range(2, 8):
        L, z3 = (1 << d) - 1, zech3(d)
        hits = 0
        for a in range(L):
            zs = [z3[t * a % L] for t in range(1, L)]
            h = math.gcd(a, L)
            for b in range(L):
                w = L // h * math.gcd(b, h)
                lookup = gf2poly._root_row(d, h, w)[pow(a // h, -1, L // h) * b % w]
                brute = any(z == t * b % L for t, z in enumerate(zs, 1))
                assert lookup == brute, (d, a, b)
                hits += brute
        assert 0 < hits < L * L, d


def test_deep_root_test_matches_the_chain_on_production_columns(reference_pool):
    # zero tolerance against the oracle's chain to depth ROOT_DEPTH, on the
    # root test to that depth from d = 2, as the survey calls it at
    # n >= 1000: even s at odd n, odd s at odd and even n
    depth, hits = gf2poly.ROOT_DEPTH, set()
    for n, s_start in [(2401, 2), (2999, 2), (1201, 1), (1202, 1)]:
        ss = range(s_start, (n - 1) // 3 + 1, 2)
        polys = [pent_bits(n, s) for s in ss]
        chain = reference_pool.map(
            partial(oracles.rabin_smallest_factor_degree, depth=depth, rabin=False), polys,
            chunksize=16)
        for s, p, expected in zip(ss, polys, chain):
            d = gf2poly._smallest_factor_degree_le(p, depth)
            assert d == expected, (n, s)
            hits.add(d)
    assert {None, 14, 15, 16, 17, 18, 19} <= hits


def root_cache_sizes(_=None):
    return gf2poly._root_row.cache_info().currsize, gf2poly._zech3.cache_info().currsize


def test_pool_workers_inherit_the_root_tables():
    # built in the parent before the fork, so no worker builds its own:
    # every row of degree <= 13, on one z3 table per degree
    gf2poly._root_row.cache_clear()
    gf2poly._zech3.cache_clear()
    assert list(_pool.pool_map(root_cache_sizes, range(4), 2)) == [(276, 12)] * 4
    with _pool.shared_pool(2):
        assert list(_pool.pool_map(root_cache_sizes, range(4), 2)) == [(276, 12)] * 4


def test_importing_pentaswan_builds_no_root_table():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import pentaswan, pentaswan.cli\n"
            "from pentaswan import gf2poly\n"
            "print(gf2poly._root_row.cache_info().currsize,"
            " gf2poly._zech3.cache_info().currsize)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 0\n"


# --- text format ---------------------------------------------------------------

def test_hex_examples():
    assert BitPoly(0b111).to_hex() == "7"
    assert BitPoly.from_hex("7") == BitPoly(0b111)
    assert BitPoly.from_hex("101") == BitPoly.from_exponents([8, 0])


def test_hex_round_trip_bit_exact():
    rng = random.Random(16)
    assert BitPoly.from_hex(ZERO.to_hex()) == ZERO
    for _ in range(300):
        p = BitPoly(rng.getrandbits(rng.randrange(1, 120)))
        assert BitPoly.from_hex(p.to_hex()) == p


@pytest.mark.parametrize("bad", ["", "F", "0x1", "1_2", "+7", " 7", "7 "])
def test_hex_rejects_malformed(bad):
    with pytest.raises(ValueError):
        BitPoly.from_hex(bad)


# --- type behavior ---------------------------------------------------------------

def test_bitpoly_basics():
    assert ZERO.degree == float("-inf")
    assert ONE.degree == 0
    assert X.degree == 1
    assert BitPoly(0b101) == BitPoly(0b101)
    assert len({BitPoly(5), BitPoly(5), BitPoly(7)}) == 2
    assert not ZERO and ONE
    with pytest.raises(AttributeError):
        X.bits = 7
    with pytest.raises(ValueError):
        BitPoly(-1)
    assert "X^7" in repr(pent_poly(PentShape(7, 2)))
