import pickle
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pentaswan import zpoly
from pentaswan.gf2poly import BitPoly, PentShape, pent_poly
from pentaswan.zpoly import (
    ConsistencyError,
    IntPoly,
    discriminant,
    discriminant_mod8,
    h_poly,
    lift,
    power_sums,
    resultant,
    second_power_sums,
)

import oracles


def pent_lift(n, s):
    return lift(pent_poly(PentShape(n, s)))


def rand_01_poly(rng, deg, constant_one=True):
    terms = [(deg, 1)]
    for e in range(1, deg):
        if rng.random() < 0.5:
            terms.append((e, 1))
    if constant_one or rng.random() < 0.5:
        terms.append((0, 1))
    return IntPoly(terms)


def mul(P, Q):
    """P * Q; the IntPoly constructor sums the like terms."""
    return IntPoly((e1 + e2, c1 * c2) for e1, c1 in P.terms for e2, c2 in Q.terms)


def mod2(F):
    """F with its coefficients reduced mod 2, as a BitPoly."""
    return BitPoly(sum(1 << e for e, c in F.terms if c & 1))


# --- IntPoly and lift ----------------------------------------------------------

def test_lift_examples():
    F = pent_lift(7, 2)
    assert F.terms == ((7, 1), (5, 1), (3, 1), (1, 1), (0, 1))
    assert lift(BitPoly(0b111)) == IntPoly([(2, 1), (1, 1), (0, 1)])


def test_lift_mod2_round_trip():
    rng = random.Random(20)
    for _ in range(100):
        bits = (1 << rng.randrange(1, 40)) | rng.getrandbits(30)
        p = BitPoly(bits)
        assert mod2(lift(p)) == p


def test_lift_rejects_zero():
    with pytest.raises(ValueError):
        lift(BitPoly(0))


def test_intpoly_normalization_and_ops():
    p = IntPoly([(3, 1), (1, 2), (1, -2), (0, 5)])
    assert p.terms == ((3, 1), (0, 5))
    assert mul(p, IntPoly([(0, 1)])) == p
    assert IntPoly([]).is_zero()
    assert IntPoly(enumerate([5, 0, 0, 1])) == p
    assert p.to_dense() == [5, 0, 0, 1]
    assert p.derivative() == IntPoly([(2, 3)])


def test_value_types_are_immutable_hashable_and_picklable():
    for p in (IntPoly([(3, 1), (0, 5)]), BitPoly(0b1011)):
        field = "terms" if isinstance(p, IntPoly) else "bits"
        before, members = hash(p), {p}
        with pytest.raises(AttributeError):
            setattr(p, field, ((5, 1),) if field == "terms" else 7)
        assert hash(p) == before and p in members
        assert pickle.loads(pickle.dumps(p)) == p
        assert hash(pickle.loads(pickle.dumps(p))) == before
    # equal coefficients, other types: never equal
    assert BitPoly(0b11) != lift(BitPoly(0b11))
    assert BitPoly(0b11) != 0b11 and 0b11 != BitPoly(0b11)
    assert len({BitPoly(1), IntPoly([(0, 1)]), 1}) == 3


def test_intpoly_reciprocal():
    F = pent_lift(13, 2)
    assert oracles.int_reciprocal(F) == IntPoly([(13, 1), (6, 1), (4, 1), (2, 1), (0, 1)])
    with pytest.raises(ValueError):
        oracles.int_reciprocal(IntPoly([(2, 1), (1, 1)]))


# --- H = nF - XF' ----------------------------------------------------------------

def test_h_poly_examples():
    assert h_poly(pent_lift(7, 2)) == IntPoly([(5, 2), (3, 4), (1, 6), (0, 7)])
    assert h_poly(IntPoly([(4, 1)])).is_zero()
    assert h_poly(IntPoly([(2, 1), (1, 1), (0, 1)])) == IntPoly([(1, 1), (0, 2)])


def test_h_poly_pentanomial_support():
    for n, s in [(13, 2), (25, 6), (31, 8)]:
        H = h_poly(pent_lift(n, s))
        assert H.terms == ((n - s, s), (n - 2 * s, 2 * s), (n - 3 * s, 3 * s), (0, n))


def test_h_poly_requires_monic():
    with pytest.raises(ValueError):
        h_poly(IntPoly([(3, 2), (0, 1)]))


# --- Newton power sums ------------------------------------------------------------

def test_power_sums_start_at_degree():
    for F in (pent_lift(13, 2), IntPoly([(2, 1), (1, 1), (0, 1)])):
        assert power_sums(F, 0)[0] == F.degree


def test_power_sums_cube_roots_of_unity():
    # X^2+X+1 has the primitive cube roots of unity as roots
    table = power_sums(IntPoly([(2, 1), (1, 1), (0, 1)]), 6)
    assert [table[m] for m in range(7)] == [2, -1, -1, 2, -1, -1, 2]


def test_power_sums_vanishing_indices():
    table = power_sums(pent_lift(13, 2), 12)
    assert table[11] == table[9] == table[7] == 0


def test_power_sums_match_companion_traces_frozen():
    # first ten values for the (25, 6) lift, frozen from the matrix oracle
    table = power_sums(pent_lift(25, 6), 10)
    assert [table[m] for m in range(1, 11)] == [0, 0, 0, 0, 0, -6, 0, 0, 0, 0]


def test_power_sums_match_companion_traces():
    rng = random.Random(21)
    cases = [pent_lift(25, 6)] + [rand_01_poly(rng, rng.randrange(2, 26)) for _ in range(25)]
    for F in cases:
        traces = oracles.companion_power_traces(F.to_dense(), 60)
        table = power_sums(F, 60)
        assert [table[m] for m in range(61)] == traces, F


def test_power_sums_validation():
    with pytest.raises(ValueError):
        power_sums(IntPoly([(3, 2), (0, 1)]), 5)  # not monic
    with pytest.raises(ValueError):
        power_sums(pent_lift(7, 2), -1)


# --- pair power sums T_k ------------------------------------------------------------

def test_pair_power_sums_examples():
    table = power_sums(pent_lift(13, 2), 22)
    assert second_power_sums(table, 11) == second_power_sums(table, 7)
    quad = power_sums(IntPoly([(2, 1), (1, 1), (0, 1)]), 2)
    assert second_power_sums(quad, 1) == 1


def test_pair_power_sums_numeric_oracle():
    F = pent_lift(17, 4)
    table = power_sums(F, 26)
    for k in (13, 5):
        assert second_power_sums(table, k) == oracles.pair_power_sum_numeric(
            F.to_dense(), k
        )


def test_pair_power_sums_guards():
    S = power_sums(pent_lift(13, 2), 4)
    assert second_power_sums(S, 2) == (S[2] ** 2 - S[4]) // 2
    for k in (-1, 3, 12):  # a negative index would wrap; S_6 and S_24 are missing
        with pytest.raises(ValueError):
            second_power_sums(S, k)
    S[2] += 1  # force odd S_1^2 - S_2
    with pytest.raises(ConsistencyError):
        second_power_sums(S, 1)


# --- negative power sums --------------------------------------------------------------

# S_-1..S_-count of monic F with F(0) = 1 are the power sums S_1..S_count of
# its reciprocal X^n F(1/X), which is monic with the inverse roots

def test_neg_power_sums_vieta():
    assert power_sums(oracles.int_reciprocal(IntPoly([(2, 1), (1, 1), (0, 1)])), 1)[1:] == [-1]


def test_neg_power_sums_pent_13_2_pattern():
    # series support {7, 9, 11} below the degree; everything else vanishes
    assert power_sums(oracles.int_reciprocal(pent_lift(13, 2)), 12)[1:] == (
        [0, 0, 0, 0, 0, 0, -7, 0, -9, 0, -11, 0])


def test_reciprocal_power_sums_match_the_series_identity():
    rng = random.Random(23)
    cases = [pent_lift(13, 2), pent_lift(19, 4)] + [
        rand_01_poly(rng, rng.randrange(2, 31)) for _ in range(30)
    ]
    for F in cases:
        for count in (1, 60):
            assert power_sums(oracles.int_reciprocal(F), count)[1:] == (
                oracles.series_neg_power_sums(F.to_dense(), count)), F


# --- resultants -------------------------------------------------------------------------

def test_resultant_examples():
    Q = IntPoly([(2, 1), (1, 1), (0, 1)])
    assert resultant(Q, IntPoly([(1, 1), (0, 2)])) == 3  # (a+2)(b+2) = Q(-2)
    assert resultant(pent_lift(19, 2), IntPoly([(0, 1)])) == 1
    F = pent_lift(7, 2)
    assert resultant(F, h_poly(F)) == 1600327
    assert resultant(F, h_poly(F)) % 8 == 7
    # deg B >= deg A: B mod A is the constant c, so Res(A, B) = c^deg A
    assert resultant(Q, IntPoly([(3, 1), (0, 5)])) == 6**2  # X^3 = 1 mod Q
    C = IntPoly([(3, 1), (0, -2)])
    assert resultant(C, IntPoly([(4, 1), (1, -2), (0, -3)])) == (-3) ** 3  # X^4 = 2X mod C
    # deg B >= deg A and B mod A = 0
    assert resultant(Q, IntPoly([(3, 1), (0, -1)])) == 0  # X^3 - 1 = (X - 1) Q
    assert resultant(Q, mul(Q, IntPoly([(2, 3), (0, 7)]))) == 0


def test_resultant_zero_on_common_factor():
    A = IntPoly([(2, 1), (0, -1)])  # (X-1)(X+1)
    B = IntPoly([(1, 1), (0, -1)])
    assert resultant(A, B) == 0


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(24)
    for _ in range(120):
        da = rng.randrange(1, 11)
        A = IntPoly([(da, 1)] + [(e, rng.randrange(-6, 7)) for e in range(da)])
        db = rng.randrange(0, 14)
        B = IntPoly([(db, rng.choice([c for c in range(-6, 7) if c]))]
                    + [(e, rng.randrange(-6, 7)) for e in range(db)])
        if B.is_zero():
            continue
        expected = oracles.sylvester_resultant(A.to_dense(), B.to_dense())
        assert resultant(A, B) == expected, (A, B)


def test_resultant_matches_sylvester_on_every_small_shape():
    # zero tolerance against a determinant that shares no step with the
    # chain: every pentanomial lift with 7 <= n < 25, either parity of s,
    # for both discriminant routes, whose sparse chains have degree gaps
    checked = 0
    for n in range(7, 25):
        for s in range(1, (n - 1) // 3 + 1):
            F = pent_lift(n, s)
            for B in (h_poly(F), F.derivative()):
                expected = oracles.sylvester_resultant(F.to_dense(), B.to_dense())
                assert resultant(F, B) == expected, (n, s, B)
                checked += 1
    assert checked == 162


@pytest.mark.parametrize("helper", ["_exact_div", "_quo"])
def test_an_inexact_division_in_the_chain_raises(monkeypatch, helper):
    # the chain hands a checked division a wrong scalar, 1000003 times the
    # right one: the remainder's divisor g * h^delta through _exact_div, or
    # every scalar one (h and the final constant) through _quo
    divide = getattr(zpoly, helper)
    monkeypatch.setattr(zpoly, helper, lambda x, d: divide(x, d * 1000003))
    F = pent_lift(79, 13)
    with pytest.raises(ConsistencyError):
        resultant(F, h_poly(F))


def brown_traub(A, B):
    return oracles.brown_traub_resultant(A.to_dense(), B.to_dense())


def test_resultant_matches_brown_traub_on_every_small_shape():
    # every pentanomial lift with 7 <= n < 80, either parity of s, against
    # both discriminant routes: sparse, so the chains have degree gaps
    checked = 0
    for n in range(7, 80):
        for s in range(1, (n - 1) // 3 + 1):
            F = pent_lift(n, s)
            for B in (h_poly(F), F.derivative()):
                assert resultant(F, B) == brown_traub(F, B), (n, s)
                checked += 1
    assert checked == 2 * sum((n - 1) // 3 for n in range(7, 80))


def random_int_poly(rng, deg, kind, monic):
    if kind == "sparse":
        exps = {deg, 0} | {rng.randrange(deg + 1) for _ in range(rng.randrange(4))}
        terms = [(e, rng.choice([-3, -2, -1, 1, 2, 3])) for e in exps]
    else:
        bound = 10 if kind == "dense" else 1 << 16
        terms = [(e, rng.randrange(-bound, bound)) for e in range(deg + 1)]
    lead = 1 if monic else rng.choice([-1, 1]) * rng.randrange(1, 13)
    return IntPoly([(e, c) for e, c in terms if e < deg] + [(deg, lead)])


def random_pair(rng, i):
    kind = ("sparse", "dense", "large")[i % 3]
    case = ("plain", "equal", "common")[i // 3 % 3]
    if case == "common":  # a planted common factor P: the resultant is 0
        P = random_int_poly(rng, rng.randrange(1, 6), kind, monic=True)
        A = mul(P, random_int_poly(rng, rng.randrange(1, 30), kind, monic=True))
        return A, mul(P, random_int_poly(rng, rng.randrange(0, 30), kind, monic=False)), 0
    da = rng.randrange(1, 60)
    db = da if case == "equal" else rng.randrange(0, 60)
    A = random_int_poly(rng, da, kind, monic=True)
    return A, random_int_poly(rng, db, kind, monic=False), None


def test_resultant_matches_brown_traub_on_random_pairs():
    rng = random.Random(27)
    zeros = 0
    for i in range(1080):
        A, B, expected = random_pair(rng, i)
        value = resultant(A, B)
        assert value == brown_traub(A, B), (i, A, B)
        if expected is not None:
            assert value == expected, (i, A, B)
            zeros += 1
    assert zeros == 360


def monic_polys(min_degree):
    return st.lists(st.integers(-20, 20), min_size=min_degree, max_size=12).map(
        lambda low: IntPoly(enumerate(low + [1]))
    )


@seed(29)
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(monic_polys(1), monic_polys(0), monic_polys(0))
def test_resultant_is_multiplicative_and_antisymmetric(A, B, C):
    assert resultant(A, mul(B, C)) == resultant(A, B) * resultant(A, C)
    if B.degree >= 1:
        sign = -1 if (A.degree * B.degree) & 1 else 1
        assert resultant(A, B) == sign * resultant(B, A)


def test_resultant_validation():
    with pytest.raises(ValueError):
        resultant(IntPoly([(2, 3), (0, 1)]), IntPoly([(0, 1)]))  # non-monic A
    with pytest.raises(ValueError):
        resultant(pent_lift(7, 2), IntPoly([]))


# --- discriminants ------------------------------------------------------------------------

def test_discriminant_small_classics():
    assert discriminant(IntPoly([(2, 1), (1, 1), (0, 1)])) == -3
    assert discriminant(IntPoly([(2, 1), (0, -1)])) == 4  # X^2 - 1
    # depressed cubic X^3 + pX + q has discriminant -4p^3 - 27q^2
    assert discriminant(IntPoly([(3, 1), (1, -1)])) == 4


def test_discriminant_mod8_examples():
    assert discriminant_mod8(pent_lift(7, 2)) == 1
    assert discriminant_mod8(pent_lift(11, 2)) == 5
    assert discriminant_mod8(pent_lift(9, 2)) == 1


@pytest.fixture
def swan_calls(monkeypatch):
    """Records (n, s) of every call discriminant_mod8 makes to Swan's reduction."""
    calls = []
    reduce = zpoly._swan_residue

    def recording(n, s):
        calls.append((n, s))
        return reduce(n, s)

    monkeypatch.setattr(zpoly, "_swan_residue", recording)
    return calls


def test_discriminant_routes_agree(swan_calls):
    rng = random.Random(25)
    for _ in range(120):
        F = rand_01_poly(rng, rng.randrange(2, 21))
        assert resultant(F, h_poly(F)) == resultant(F, F.derivative()), F
        assert discriminant_mod8(F) == discriminant(F) % 8, F
    # near misses of the equally gapped lift take the general route
    swan_calls.clear()
    for n, s in [(13, 2), (25, 6), (40, 7), (34, 9)]:
        gaps = (n, n - s, n - 2 * s, n - 3 * s, 0)
        near_misses = [
            IntPoly((e, 1) for e in gaps[:3] + (n - 3 * s - 1, 0)),  # unequal gaps
            IntPoly(zip(gaps, (1, 1, 3, 1, 1))),  # a coefficient 3
            IntPoly((e, 1) for e in gaps[:3] + (0,)),  # four terms
        ]
        for F in near_misses:
            assert discriminant_mod8(F) == discriminant(F) % 8, F
        assert swan_calls == []
        assert discriminant_mod8(pent_lift(n, s)) == discriminant(pent_lift(n, s)) % 8
        assert swan_calls == [(n, s)]
        swan_calls.clear()


def test_swan_reduction_equals_the_resultant():
    # zero tolerance, as full integers: every lift with 7 <= n < 100, either
    # parity of n and of s, then a seeded sample of 40 with 120 <= n < 300,
    # whose sparse lifts give chains with wide degree gaps
    shapes = [(n, s) for n in range(7, 100) for s in range(1, (n - 1) // 3 + 1)]
    assert len(shapes) == 1581
    shapes += random.Random(32).sample(
        [(n, s) for n in range(120, 300) for s in range(1, (n - 1) // 3 + 1)], 40
    )
    for n, s in shapes:
        F = pent_lift(n, s)
        assert oracles.swan_resultant(n, s) == resultant(F, h_poly(F)), (n, s)


def test_swan_residue_matches_the_exact_reduction():
    # zero tolerance: the residue, taken in Z/8 through the forward cubic
    # for odd n and the reciprocal one for even n, against the oracle's
    # full integers mod 8, on every lift with 7 <= n < 200, either parity
    # of n and of s, then a seeded handful at n = 1001 and 2999 and even n
    # with a large 2-adic valuation
    shapes = [(n, s) for n in range(7, 200) for s in range(1, (n - 1) // 3 + 1)]
    assert len(shapes) == 6498
    rng = random.Random(23)
    shapes += [(n, rng.randrange(1, (n - 1) // 3 + 1)) for n in (1001, 1001, 2999, 2999)]
    shapes += [(256, 3), (2992, 3), (2992, 997), (2048, 5), (2048, 681), (1536, 7), (2998, 5)]
    for n, s in shapes:
        assert zpoly._swan_residue(n, s) == oracles.swan_resultant(n, s) % 8, (n, s)


def test_even_n_residue_matches_the_exact_discriminant():
    # shares no code with Swan's reduction: the exact Res(F, F'), on every
    # lift with n and s both even and n <= 40 (where 2^n divides D), two
    # larger both-even lifts and one even-n, odd-s lift at n = 2992
    both_even = [(n, s) for n in range(8, 41, 2) for s in range(2, (n - 1) // 3 + 1, 2)]
    both_even += [(1000, 10), (2000, 400)]
    for n, s in both_even + [(2992, 3)]:
        F = pent_lift(n, s)
        assert discriminant_mod8(F) == discriminant(F) % 8, (n, s)
    assert {discriminant_mod8(pent_lift(n, s)) for n, s in both_even} == {0}


def test_the_lift_never_calls_the_resultant(monkeypatch):
    shapes = [(7, 2), (11, 3), (40, 7), (64, 5), (199, 6), (200, 9)]
    expected = [discriminant(pent_lift(n, s)) % 8 for n, s in shapes]

    def refuse(A, B):
        raise AssertionError("the lift's route called resultant")

    monkeypatch.setattr(zpoly, "resultant", refuse)
    assert [discriminant_mod8(pent_lift(n, s)) for n, s in shapes] == expected


def test_h_product_is_degree_mod8():
    for n in range(7, 61, 2):
        for s in range(2, (n - 1) // 3 + 1, 2):
            F = pent_lift(n, s)
            assert resultant(F, h_poly(F)) % 8 == n % 8, (n, s)


def test_discriminant_mod8_validation():
    with pytest.raises(ValueError):
        discriminant_mod8(IntPoly([(3, 1), (1, 1)]))  # constant term 0
    with pytest.raises(ValueError):
        discriminant_mod8(IntPoly([(3, 2), (0, 1)]))


def test_discriminant_mod8_other_lifts_spot_check():
    # exploratory: perturbing the 0/1 lift by 2*X^j keeps the residue, on
    # squarefree small cases (not asserted as a general invariant)
    rng = random.Random(26)
    from pentaswan.gf2poly import is_squarefree

    checked = 0
    for _ in range(60):
        deg = rng.randrange(2, 13)
        F = rand_01_poly(rng, deg)
        if not is_squarefree(mod2(F)):
            continue
        j = rng.randrange(1, deg)
        G = IntPoly(F.terms + ((j, 2),))
        if not G.is_monic or G.constant_term() != 1:
            continue
        assert discriminant_mod8(G) == discriminant_mod8(F), (F, j)
        checked += 1
    assert checked > 20
