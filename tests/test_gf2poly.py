import csv
import random
from pathlib import Path

import pytest

from pentaswan import gf2poly, search
from pentaswan.gf2poly import (
    BitPoly,
    ONE,
    PentShape,
    ShapeError,
    X,
    ZERO,
    derivative,
    factor_count,
    gcd,
    has_factor_of_degree_le,
    is_irreducible,
    is_squarefree,
    mul,
    pent_poly,
    pow_frobenius,
    reciprocal,
    rem,
    squarefree_parts,
)
from pentaswan.search import enumerate_shapes

import oracles


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
            assert pent_poly(PentShape(n, s)).weight == 5


# --- reciprocal ---------------------------------------------------------------

def test_reciprocal_examples():
    assert reciprocal(pent_poly(PentShape(7, 2))) == BitPoly.from_exponents([7, 6, 4, 2, 0])
    palindrome = BitPoly(0b111)
    assert reciprocal(palindrome) == palindrome


def test_reciprocal_involution_and_degree():
    rng = random.Random(101)
    for _ in range(200):
        p = BitPoly(rand_poly(rng, 40).bits | 1)  # force constant term
        assert reciprocal(reciprocal(p)) == p
        assert reciprocal(p).degree == p.degree


def test_reciprocal_requires_constant_term():
    with pytest.raises(ValueError):
        reciprocal(X)


def test_reciprocal_maps_pentanomial_to_mirror_shape():
    p = pent_poly(PentShape(13, 4))
    assert reciprocal(p) == BitPoly.from_exponents([13, 12, 8, 4, 0])


# --- ring arithmetic ----------------------------------------------------------

def test_arithmetic_examples():
    assert mul(BitPoly(0b11), BitPoly(0b11)) == BitPoly(0b101)
    assert derivative(BitPoly(0b10101)) == ZERO
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
        d = derivative(p)
        expected = BitPoly.from_exponents(e - 1 for e in p.exponents() if e % 2)
        assert d == expected


# --- squarefreeness -----------------------------------------------------------

def test_is_squarefree_examples():
    assert not is_squarefree(BitPoly(0b10101))  # (X^2+X+1)^2
    assert is_squarefree(BitPoly(0b111))
    assert is_squarefree(pent_poly(PentShape(7, 2)))


def test_squarefree_parts_degree_accounting():
    rng = random.Random(10)
    for _ in range(150):
        p = rand_poly(rng, 24)
        if rng.random() < 0.4:  # mix in non-squarefree inputs
            p = mul(p, p)
        parts = squarefree_parts(p)
        assert sum(e * g.degree for g, e in parts) == p.degree
        for g, _ in parts:
            assert is_squarefree(g)


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

def test_berlekamp_count_matches_ddf_and_trial_division():
    rng = random.Random(26)
    polys = [pent_poly(shape).bits for shape in enumerate_shapes(7, 200)]  # C1's shapes
    polys += [(1 << n) | (1 << k) | 1 for n in range(2, 120) for k in range(1, n)]
    polys += [(1 << d) | rng.getrandbits(d) for d in (rng.randrange(1, 300) for _ in range(500))]
    polys += range(2, 1 << 9)  # every polynomial of degree 1-8
    parts = {g for p in polys for g, _ in gf2poly._squarefree_parts(p)}
    assert len(parts) > 7500
    for g in parts:
        count = gf2poly._count_factors_squarefree(g)
        assert count == oracles.ddf_count_factors_squarefree(g), g
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
    assert (2401, 388) in table2_shapes(2401)


def test_factor_count_with_multiplicity():
    # P^e * Q^f for distinct irreducibles P, Q has e + f factors; when e = f
    # the squarefree split leaves one part P * Q of two factors
    irreducibles = list(KNOWN_IRREDUCIBLES.values())
    for i, P in enumerate(irreducibles):
        for Q in irreducibles[i + 1:]:
            for e in range(1, 5):
                for f in range(1, 5):
                    p = BitPoly(gf2poly._mul(power(P, e), power(Q, f)))
                    assert factor_count(p).total == e + f, (P.bit_length() - 1, e,
                                                            Q.bit_length() - 1, f)


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


def test_fused_chain_matches_oracle_on_every_shape_below_200():
    for parity in ("even", "odd"):
        for shape in enumerate_shapes(7, 200, parity, "all"):
            p = pent_poly(shape).bits
            assert gf2poly._smallest_factor_degree(p) == (
                oracles.naive_smallest_factor_degree(p, 13)
            ), shape


def test_fused_chain_matches_trial_division_on_p_and_its_reciprocal():
    rng = random.Random(22)
    for i in range(60):
        deg = rng.randrange(1, 41)
        if i % 2:  # sparse, like the survey's pentanomials
            exps = {deg, 0, *rng.sample(range(1, deg), min(deg - 1, rng.randrange(1, 6)))}
            p = BitPoly.from_exponents(exps)
        else:
            p = BitPoly((1 << deg) | rng.getrandbits(deg) | 1)
        degrees = sorted(f.bit_length() - 1 for f in oracles.naive_factors(p.bits))
        depth = rng.randrange(0, 14)
        shallow = degrees[0] if degrees[0] <= depth else None
        if degrees[0] <= 13:
            expected = degrees[0]
        else:
            expected = deg if len(degrees) == 1 else None
        for q in (p, reciprocal(p)):
            assert gf2poly._smallest_factor_degree_le(q.bits, depth) == shallow, (q, depth)
            assert gf2poly._smallest_factor_degree(q.bits) == expected, q


# --- folded gcds and the survivor decision, against the slow paths they replace

def table2_shapes(n_min):
    with open(Path(__file__).parent / "data" / "table2.csv") as f:
        return [(int(r["n"]), int(r["s"])) for r in csv.DictReader(f) if int(r["n"]) >= n_min]


def test_fold_matches_rem():
    rng = random.Random(23)
    byte_edges = {8 * j + e for j in (2, 4, 16, 64, 128, 255) for e in (-1, 0, 1)}
    for L in sorted(set(range(1, 17)) | byte_edges | {(1 << k) - 1 for k in range(1, 12)}):
        values = [0, 1, (1 << L) | 1, (1 << 3000) - 1]
        for bits in {L - 1, L, L + 1, 2 * L, 2 * L + 1, 8 * L + 8, 3001} - {0}:
            values.append(rng.getrandbits(bits) | 1 << (bits - 1))  # dense
            values.append(sum(1 << e for e in rng.sample(range(bits), min(bits, 5))))  # sparse
        for a in values:
            assert gf2poly._fold(a, L) == gf2poly._rem(a, (1 << L) | 1), (L, a.bit_length())


# degrees, all above the prefilter depth, of the irreducibles g in g * P below
FACTOR_DEGREES = (14, 15, 20, 23, 29, 31, 37)


def random_irreducible(rng, degree):
    while True:
        g = (1 << degree) | rng.getrandbits(degree) | 1
        if oracles.naive_smallest_factor_degree(g, 0) == degree:
            return g


def test_products_with_a_table2_irreducible_are_reducible(monkeypatch):
    # g * P with P a table2 irreducible of degree >= 721: g is X, which the
    # prefilter finds, or an irreducible of degree > 13, which only the
    # squarefree gcd plus Berlekamp's rank (two factors) can decide
    rng = random.Random(24)
    table = sorted(table2_shapes(721))
    cases = [2] + [random_irreducible(rng, d) for d in FACTOR_DEGREES]
    for i, g in enumerate(cases):
        n, s = table[i * len(table) // len(cases)]
        p = gf2poly._mul(g, pent_poly(PentShape(n, s)).bits)
        expected = 1 if g == 2 else None
        assert gf2poly._smallest_factor_degree(p) == expected, (n, s, g)
        assert not is_irreducible(BitPoly(p)), (n, s, g)
        if g != 2:
            monkeypatch.setattr(gf2poly, "pent_poly", lambda shape: BitPoly(p))
            assert search.classify_shape(PentShape(n, s)) == ("red_full", None), (n, s, g)
            monkeypatch.undo()


def test_non_squarefree_survivors_are_reducible():
    # P^3 and P^2 * Q with P, Q irreducible of degree > 13: the prefilter
    # finds nothing, and Berlekamp's rank alone counts one factor on P^3,
    # so only gcd(p, p') != 1 can call these reducible
    rng = random.Random(27)
    big = pent_poly(PentShape(*sorted(table2_shapes(721))[0])).bits
    small = random_irreducible(rng, 23)
    cube = power(big, 3)
    assert gf2poly._count_factors_squarefree(cube) == 1
    for q in (cube, power(small, 3), gf2poly._mul(power(big, 2), small),
              gf2poly._mul(power(small, 2), big)):
        assert gf2poly._smallest_factor_degree(q) is None, q.bit_length() - 1
        assert not is_irreducible(BitPoly(q)), q.bit_length() - 1


def test_table2_irreducibles_above_720_stay_irreducible():
    for n, s in random.Random(25).sample(table2_shapes(721), 8):
        p = pent_poly(PentShape(n, s))
        assert gf2poly._smallest_factor_degree(p.bits) == n, (n, s)
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
        if gf2poly._smallest_factor_degree_le(p, 13) is None:
            out.append((n, s))
    return out


def test_survivor_decision_matches_rabin_chain_at_production_degrees():
    rng = random.Random(28)
    shapes = rng.sample(table2_shapes(2401), 24) + production_survivors(rng, 48)
    verdicts = []
    for n, s in shapes:
        p = pent_poly(PentShape(n, s)).bits
        verdict = gf2poly._smallest_factor_degree(p)
        assert verdict == oracles.rabin_smallest_factor_degree(p, 13), (n, s)
        verdicts.append(verdict)
    assert verdicts[:24] == [n for n, _ in shapes[:24]]
    assert None in verdicts[24:]


# --- small-factor prefilter ----------------------------------------------------

def test_has_factor_examples():
    assert has_factor_of_degree_le(BitPoly(0b10101), 2)
    assert not has_factor_of_degree_le(pent_poly(PentShape(7, 2)), 3)
    # pent(13,2) factors into degrees {4, 9}
    assert has_factor_of_degree_le(pent_poly(PentShape(13, 2)), 6)
    assert not has_factor_of_degree_le(pent_poly(PentShape(13, 2)), 3)


def test_has_factor_matches_trial_division():
    rng = random.Random(15)
    for _ in range(150):
        p = rand_poly(rng, 20, min_deg=8)
        d_max = rng.randrange(1, 7)
        assert has_factor_of_degree_le(p, d_max) == oracles.naive_has_factor_le(
            p.bits, d_max
        ), (p, d_max)


def test_has_factor_preconditions():
    with pytest.raises(ValueError):
        has_factor_of_degree_le(BitPoly(0b111), 2)  # deg not > d_max
    with pytest.raises(ValueError):
        has_factor_of_degree_le(pent_poly(PentShape(7, 2)), 0)


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
