import math
import random

import pytest

from pentaswan import gf2poly
from pentaswan.gf2poly import (
    BitPoly,
    PentShape,
    factor_count,
    is_irreducible,
    is_squarefree,
    pent_poly,
)
from pentaswan.search import enumerate_shapes
from pentaswan.swan import (
    OutOfTheoryError,
    ParityVerdict,
    brute_force_parity,
    decimation_reducible,
    parity_from_discriminant,
    pent_discriminant_closed_form,
    pent_parity,
    thm1_reducible,
    trinomial_parity,
)
from pentaswan.zpoly import discriminant_mod8, lift

import oracles


def even_s_range(n):
    return range(2, (n - 1) // 3 + 1, 2)


# --- verdict type -----------------------------------------------------------

def test_verdict_reducibility_asymmetry():
    even = ParityVerdict("even", "closed_form")
    odd = ParityVerdict("odd", "brute_force")
    assert even.implies_reducible
    assert not odd.implies_reducible


def test_verdict_validation():
    with pytest.raises(ValueError):
        ParityVerdict("sideways", "closed_form")
    with pytest.raises(ValueError):
        ParityVerdict("even", "guesswork")


# --- discriminant bridge ------------------------------------------------------

def test_parity_from_discriminant_examples():
    assert parity_from_discriminant(7, 1).parity == "odd"
    v = parity_from_discriminant(11, 5)
    assert v.parity == "even" and v.implies_reducible and v.source == "discriminant"


def test_parity_from_discriminant_rejects_even_residue():
    with pytest.raises(ValueError):
        parity_from_discriminant(7, 4)
    with pytest.raises(ValueError):
        parity_from_discriminant(0, 1)


@pytest.mark.parametrize("deg,res,parity", [
    (6, 1, "even"), (6, 5, "odd"), (9, 1, "odd"), (9, 3, "even"), (10, 7, "odd"),
])
def test_parity_from_discriminant_table(deg, res, parity):
    assert parity_from_discriminant(deg, res).parity == parity


# --- trinomials ------------------------------------------------------------------

def test_trinomial_parity_examples():
    assert trinomial_parity(8, 3).parity == "even"   # n even, nk/2 = 12 = 0 (mod 4)
    assert trinomial_parity(7, 2).parity == "even"   # k | 2n and 7 = -1 (mod 8)
    assert trinomial_parity(7, 6).parity == "odd"
    # X^7+X^6+1 is in fact irreducible: frozen via trial division
    assert factor_count(BitPoly.from_exponents([7, 6, 0])) == (1, "odd")


def test_trinomial_parity_preconditions():
    with pytest.raises(ValueError, match="reciprocal"):
        trinomial_parity(9, 3)  # both odd
    with pytest.raises(ValueError, match="square"):
        trinomial_parity(8, 2)  # both even
    with pytest.raises(ValueError):
        trinomial_parity(3, 3)
    with pytest.raises(ValueError):
        trinomial_parity(3, 0)


def test_trinomial_parity_brute_force_small():
    for n in range(2, 80):
        for k in range(1, n):
            if (n + k) % 2 == 0:
                continue
            observed = factor_count(BitPoly.from_exponents([n, k, 0])).parity
            assert trinomial_parity(n, k).parity == observed, (n, k)


def test_trinomial_both_odd_reciprocal_reduction():
    # the documented caller-side reduction: for n, k both odd, X^n+X^k+1
    # shares its parity with X^n+X^(n-k)+1
    for n in range(3, 60, 2):
        for k in range(1, n, 2):
            if (n - k) % 2 == 0 or not n > n - k > 0:
                continue
            observed = factor_count(BitPoly.from_exponents([n, k, 0])).parity
            assert trinomial_parity(n, n - k).parity == observed, (n, k)


# --- pentanomial closed forms -------------------------------------------------------

def test_pent_discriminant_closed_form_examples():
    assert pent_discriminant_closed_form(PentShape(7, 2)) == 1
    assert pent_discriminant_closed_form(PentShape(11, 2)) == 5
    assert pent_discriminant_closed_form(PentShape(25, 6)) == 1


def test_pent_parity_examples():
    assert pent_parity(PentShape(7, 2)).parity == "odd"
    assert pent_parity(PentShape(13, 2)).parity == "even"


def test_odd_parity_does_not_certify_irreducibility():
    shape = PentShape(9, 2)
    verdict = pent_parity(shape)
    assert verdict.parity == "odd" and not verdict.implies_reducible
    assert not is_irreducible(pent_poly(shape))


@pytest.mark.parametrize("n,s", [(10, 2), (14, 4), (13, 3), (16, 3)])
def test_closed_forms_out_of_theory(n, s):
    shape = PentShape(n, s)
    with pytest.raises(OutOfTheoryError):
        pent_discriminant_closed_form(shape)
    with pytest.raises(OutOfTheoryError):
        pent_parity(shape)
    with pytest.raises(OutOfTheoryError):
        decimation_reducible(shape)
    if s % 2:
        with pytest.raises(OutOfTheoryError):
            thm1_reducible(shape)
    else:
        assert thm1_reducible(shape) is True  # even n with even s is a square


def test_thm1_examples():
    assert thm1_reducible(PentShape(11, 2)) is True
    assert thm1_reducible(PentShape(10, 2)) is True  # even n: perfect square
    assert thm1_reducible(PentShape(7, 2)) is False  # no certificate; irreducible


def test_bridge_consistency():
    # closed-form discriminant pushed through the bridge equals the direct
    # closed-form parity, for every shape in range
    for n in range(7, 500, 2):
        for s in even_s_range(n):
            shape = PentShape(n, s)
            bridged = parity_from_discriminant(n, pent_discriminant_closed_form(shape))
            assert bridged.parity == pent_parity(shape).parity


def test_pent_parity_brute_force_small():
    for n in range(7, 80, 2):
        for s in even_s_range(n):
            shape = PentShape(n, s)
            p = pent_poly(shape)
            assert is_squarefree(p), shape
            assert brute_force_parity(p).parity == pent_parity(shape).parity, shape


def test_odd_gap_bridge_matches_brute_force():
    # no closed form covers odd s, so the bridge is the only shortcut there:
    # every odd-s shape with 7 <= n < 201, either parity of n (3,330 shapes,
    # all squarefree).  For these lifts discriminant_mod8 takes Swan's
    # reduction to a cubic, so the factor counts carry most of the cost
    shapes = list(enumerate_shapes(7, 201, s_parity="odd", n_parity="all"))
    assert len(shapes) == 3330
    for shape in shapes:
        p = pent_poly(shape)
        assert is_squarefree(p), shape
        bridged = parity_from_discriminant(shape.n, discriminant_mod8(lift(p)))
        assert bridged.parity == brute_force_parity(p).parity, shape


def test_odd_gap_bridge_matches_brute_force_sample_above_120():
    # a seeded sample of 120 odd-s shapes with 120 <= n < 300, either
    # parity of n, reaching lifts of degree up to 299 where the degree-n
    # resultant's coefficients grow to about 2,400 bits; Swan's reduction
    # keeps discriminant_mod8 on a cubic there too
    shapes = random.Random(31).sample(
        list(enumerate_shapes(120, 300, s_parity="odd", n_parity="all")), 120
    )
    for shape in shapes:
        p = pent_poly(shape)
        assert is_squarefree(p), shape
        bridged = parity_from_discriminant(shape.n, discriminant_mod8(lift(p)))
        assert bridged.parity == brute_force_parity(p).parity, shape


def test_thm1_soundness_small():
    for n in range(7, 80):
        for s in even_s_range(n):
            shape = PentShape(n, s)
            if thm1_reducible(shape):
                assert not is_irreducible(pent_poly(shape)), shape


def test_brute_force_source_tag():
    v = brute_force_parity(pent_poly(PentShape(9, 2)))
    assert v.source == "brute_force" and v.parity == "odd"


# --- decimation certificate -----------------------------------------------------

def test_pentanomial_is_the_smaller_shape_decimated():
    # p_{n,s}(X) = p_{n/g, s/g}(X^g), g = gcd(n, s), for either parity of s
    # and n; the smaller shape need not be valid, e.g. (20, 5) -> (4, 1)
    rng = random.Random(32)
    shapes = [sh for parity in ("even", "odd") for sh in enumerate_shapes(7, 400, parity, "all")
              if math.gcd(sh.n, sh.s) > 1]
    for shape in rng.sample(shapes, 200) + [PentShape(20, 5), PentShape(775, 186)]:
        g = math.gcd(shape.n, shape.s)
        m, t = shape.n // g, shape.s // g
        q = sum(1 << e for e in (m, m - t, m - 2 * t, m - 3 * t, 0))
        decimated = sum(1 << g * e for e in gf2poly._exponents(q))
        assert pent_poly(shape).bits == decimated, shape


def test_decimation_certificate_agrees_with_the_rank_on_every_survivor():
    # every prefilter survivor with odd n < 1000 or n in {2991, 2993}, even s
    # and gcd(n, s) > 1 (1,498 shapes, n = +-3 (mod 8) included, since a
    # --no-prune survey reaches the certificate there): wherever the
    # certificate fires, gcd(p, p') plus the rank must say reducible too,
    # and it leaves only the table2 irreducibles (775, 186) and (889, 254)
    # to the rank
    fired, left = 0, []
    for n in [*range(7, 1000, 2), 2991, 2993]:
        for s in even_s_range(n):
            shape = PentShape(n, s)
            if math.gcd(n, s) == 1:
                assert not decimation_reducible(shape), shape
                continue
            p = pent_poly(shape).bits
            if gf2poly._smallest_factor_degree_le(p) is not None:
                continue
            if not decimation_reducible(shape):
                left.append((n, s))
                continue
            assert not gf2poly._survivor_is_irreducible(p), shape
            fired += 1
    assert left == [(775, 186), (889, 254)]
    assert all(is_irreducible(pent_poly(PentShape(n, s))) for n, s in left)
    assert fired == 1496


def test_decimation_certificate_is_the_order_test_on_every_divisor():
    # the certificate's one modular power against trial division: it fires
    # iff g = gcd(n, s) > 1 has a prime that does not divide 2^(n/g) - 1.
    # It depends on (n, g) alone, so s = 2g covers every odd n < 3000 and
    # every g | n with n/g >= 7, the g that some valid shape has
    pairs = 0
    for n in range(7, 3000, 2):
        for g in range(1, n // 7 + 1):
            if n % g == 0:
                m = n // g
                expected = g > 1 and any(pow(2, m, r) != 1 for r in oracles.prime_factors(g))
                assert decimation_reducible(PentShape(n, 2 * g)) == expected, (n, g)
                pairs += 1
    assert pairs == 4857


def test_decimation_certificate_covers_theorem1_on_the_smaller_shape():
    # n = +-1 and n/g = +-3 (mod 8) force g = +-3 (mod 8), hence a prime
    # r = +-3 (mod 8) of g, of even order mod 2 dividing no 2^(n/g) - 1:
    # on every shape the survey keeps, the order test fires wherever
    # Theorem 1 holds on the smaller shape (n/g, s/g)
    fired = 0
    for n in range(7, 3000, 2):
        if n % 8 not in (1, 7):
            continue
        for s in even_s_range(n):
            g = math.gcd(n, s)
            if g > 1 and (n // g) % 8 in (3, 5):
                assert decimation_reducible(PentShape(n, s)), (n, s)
                fired += 1
    assert fired == 27239


def test_decimation_certificate_never_fires_on_an_irreducible():
    shapes = [PentShape(n, s) for n, s in oracles.table2_pairs()]
    decimated = [sh for sh in shapes if math.gcd(sh.n, sh.s) > 1]
    assert [(sh.n, sh.s) for sh in decimated] == [
        (775, 186), (889, 254), (1081, 282), (1265, 184), (1705, 248),
        (1705, 496), (2015, 186), (2783, 138), (2945, 806), (2945, 868),
    ]
    for shape in shapes:
        assert not decimation_reducible(shape), shape
