"""Independent reference implementations used only to check the library.

These deliberately take the dumbest correct route -- trial division,
dense matrix powers, Sylvester determinants, high-precision root finding --
so they share no code path with the algorithms under test.
"""

from __future__ import annotations

import csv
from functools import cache
from math import gcd
from pathlib import Path


def table2_pairs(n_lo: int = 0, n_hi: int = 3000) -> list[tuple[int, int]]:
    """The known irreducible (n, s) of the even-gap family below n = 3000
    (``data/table2.csv``) with n_lo <= n < n_hi, ascending."""
    with open(Path(__file__).parent / "data" / "table2.csv") as f:
        pairs = [(int(r["n"]), int(r["s"])) for r in csv.DictReader(f)]
    return [(n, s) for n, s in pairs if n_lo <= n < n_hi]


def poly_divmod_bits(a: int, m: int) -> tuple[int, int]:
    dm = m.bit_length() - 1
    q = 0
    da = a.bit_length() - 1
    while da >= dm:
        q ^= 1 << (da - dm)
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return q, a


def naive_square(a: int) -> int:
    """Square over GF(2) one bit at a time: bit i of a lands on bit 2i."""
    out = 0
    i = 0
    while a:
        if a & 1:
            out |= 1 << (2 * i)
        a >>= 1
        i += 1
    return out


def naive_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_divmod_bits(a, b)[1]
    return a


def naive_smallest_factor_degree(p: int, depth: int) -> int | None:
    """Smallest degree d <= min(depth, deg p - 1) of an irreducible factor
    of p; else deg p if p is irreducible by Rabin's criterion; else None.
    Plain remainders modulo p itself: no reciprocal, no widened modulus."""
    n = p.bit_length() - 1
    x = poly_divmod_bits(2, p)[1]
    frob = [x]  # frob[k] = X^(2^k) mod p

    def frobenius(k):
        while len(frob) <= k:
            frob.append(poly_divmod_bits(naive_square(frob[-1]), p)[1])
        return frob[k]

    for d in range(1, min(depth, n - 1) + 1):
        if naive_gcd(p, frobenius(d) ^ x) != 1:
            return d
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    if frobenius(n) == x and all(naive_gcd(p, frob[n // q] ^ x) == 1 for q in primes):
        return n
    return None


def naive_factors(p: int) -> list[int]:
    """Complete factorization over GF(2) by trial division, smallest
    divisor first (which makes each found divisor irreducible).  The
    search resumes at the last divisor found, since no smaller one divides
    the cofactor, and skips even divisors after X, which is tried first.
    Only sensible for small degrees."""
    out = []
    d = 2
    while (d.bit_length() - 1) * 2 <= p.bit_length() - 1:
        q, r = poly_divmod_bits(p, d)
        if r == 0:
            out.append(d)
            p = q
        else:
            d += 1 if d == 2 else 2
    if p.bit_length() - 1 >= 1:
        out.append(p)
    return out


def reverse_bits(a: int) -> int:
    """X^deg(a) * a(1/X) for a > 0: bit e of a moves to bit deg(a) - e.
    With a(0) = 1 it keeps the degree and maps a's irreducible factors
    onto their own reciprocals."""
    n, out = a.bit_length() - 1, 0
    while a:
        low = a & -a
        out |= 1 << (n + 1 - low.bit_length())
        a ^= low
    return out


def _sparse_chain(p: int):
    """(m, sqr_mod) for a squaring chain over p, the slow paths' own chain.

    m is p, or its reciprocal when p(0) = 1 and the reciprocal has the
    larger top gap: g -> reciprocal(g) maps the irreducible factors of p
    onto those of its reciprocal with the same degrees, so every chain
    question has the same answer on both.  ``sqr_mod(a)`` is a^2 mod m.  On
    a sparse m the quotient is applied one top-gap step at a time, which
    costs (terms - 1) shifted XORs and retires ``gap`` bits; a dense m takes
    plain remainders."""
    from pentaswan.gf2poly import _exponents, _rem, _sqr

    def gap(m):
        exps = _exponents(m)
        return exps[0] - exps[1] if len(exps) > 1 else exps[0]

    m = p
    if p & 1 and p.bit_count() <= 8 and gap(reverse_bits(p)) > gap(p):
        m = reverse_bits(p)
    exps = _exponents(m)
    if len(exps) > 8 or 2 * gap(m) <= len(exps):
        return m, lambda a: _rem(_sqr(a), m)
    n, shifts, mask = exps[0], exps[1:], (1 << exps[0]) - 1

    def sqr_mod(a):
        a = _sqr(a)
        h = a >> n
        while h:
            a &= mask
            for e in shifts:
                a ^= h << e
            h = a >> n
        return a

    return m, sqr_mod


def ddf_count_factors_squarefree(g: int) -> int:
    """Number of irreducible factors of squarefree g, by distinct-degree
    splitting: at step d, gcd(X^(2^d) - X, remaining) collects the product
    of all irreducible factors of degree exactly d.  This is the slow path
    that Berlekamp's rank in ``gf2poly._count_factors_squarefree`` replaced;
    it runs on a squaring chain to degree deg(g) / 2, which the rank does not
    use."""
    from pentaswan.gf2poly import _degree, _divmod, _gcd

    count = 0
    remaining, sqr_mod = _sparse_chain(g)
    h = 2
    d = 0
    while _degree(remaining) > 0:
        if 2 * (d + 1) > _degree(remaining):
            count += 1
            break
        d += 1
        h = sqr_mod(h)
        part = _gcd(h ^ 2, remaining)
        if part != 1:
            count += _degree(part) // d
            remaining = _divmod(remaining, part)[0]
    return count


def berlekamp_count_factors_squarefree(g: int) -> int:
    """Number of irreducible factors of squarefree g, by Berlekamp's rank:
    it is dim ker(Q - I) = n - rank(Q - I), where row i of Q is X^(2i) mod g
    for i < n = deg(g).  The rows of Q - I are eliminated by their top bit.
    This is the kernel that ``gf2poly._count_factors_squarefree`` replaced,
    kept as it was: pivots in a dict, every row eliminated, none seeded."""
    n = g.bit_length() - 1
    pivots: dict[int, int] = {}
    row = 1
    for i in range(n):
        r = row ^ (1 << i)
        while r:
            top = r.bit_length()
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
        # X^(2i+2) mod g: shift by 2, then clear bits n+1 and n
        row <<= 2
        if row >> (n + 1):
            row ^= g << 1
        if row >> n:
            row ^= g
    return n - len(pivots)


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def rabin_smallest_factor_degree(p: int, depth: int, rabin: bool = True) -> int | None:
    """Smallest degree d of an irreducible factor of p when d <= depth;
    else, with ``rabin``, deg(p) if p is irreducible; else None.

    This is the fused chain that the prefilter plus gcd(p, p') and
    Berlekamp's rank replaced in ``gf2poly.is_irreducible``, kept
    as it was with its prime factorization and its early exits inlined.
    One squaring chain h_k = X^(2^k) mod p answers both.  For k <= depth,
    gcd(h_k - X, p) != 1 first at k = d: the small-factor prefilter, taken
    as gcd(X^L + 1, p mod (X^L + 1)) on L bits when L = 2^k - 1 < n and
    p(0) = 1.  With ``rabin`` the chain runs on to k = n = deg(p) for
    Rabin's criterion: p is irreducible iff X^(2^n) = X (mod p) and
    h_(n/q) - X is coprime to p for every prime q | n.  A nontrivial gcd at
    an early-exit k in (depth, n/2], which finds the factors of degree
    dividing k, proves p reducible (None) early; no irreducible p has one.
    It runs on a squaring chain to degree n and folded gcds, with its own
    fold; the rank uses neither.
    """
    from pentaswan.gf2poly import _degree, _gcd, _rem

    def fold(a: int, L: int) -> int:
        # a mod (X^L + 1).  As X^(2w) + 1 = (X^w + 1)^2, XORing the halves of
        # a value shorter than 2w reduces it mod X^w + 1, for w = L 2^j down to L
        w = L
        while w < a.bit_length():
            w <<= 1
        while w > L:
            w >>= 1
            a = (a >> w) ^ (a & ((1 << w) - 1))
        return a

    # If p has a factor of degree d with probability ~1/d, a gcd at k > 13
    # stops a reducible chain with probability 1 - prod(1 - 1/d) over the
    # d > 13 that divide k and no earlier exit, saving n - k squarings for
    # about 120.  Picked greedily over n < 3000 (weight n^2) while each k
    # saves >= 12 squarings more.
    early_exits = (420, 432, 646, 660, 780, 800)

    n = _degree(p)
    checks = set(range(1, depth + 1))
    if rabin:
        checks.update(n // q for q in prime_factors(n))
        checks.update(k for k in early_exits if depth < k <= n // 2)
    m, sqr_mod = _sparse_chain(p)
    h = 2
    for k in range(1, (n if rabin else depth) + 1):
        h = sqr_mod(h)
        if k in checks:
            L = (1 << k) - 1  # X^(2^k) - X = X (X^L - 1); X does not divide m if m(0) = 1
            g = _gcd((1 << L) | 1, fold(m, L)) if m & 1 and L < n else _gcd(h ^ 2, m)
            if g != 1:
                return k if k <= depth else None
    return n if rabin and _rem(h ^ 2, m) == 0 else None


# a primitive polynomial of each degree d = 2..13, by its exponents
_PRIMITIVE = (
    (2, 1, 0), (3, 1, 0), (4, 1, 0), (5, 2, 0), (6, 1, 0), (7, 1, 0),
    (8, 4, 3, 2, 0), (9, 4, 0), (10, 3, 0), (11, 2, 0), (12, 6, 4, 1, 0),
    (13, 4, 3, 1, 0),
)


@cache
def coset_root_tables() -> tuple[tuple[list[int], list[int]], ...]:
    """(z3, reps) for each degree d = 2..13, built on first use.

    With L = 2^d - 1 and gamma primitive, z3[k] = 3 Z(k) mod L, where the
    Zech logarithm Z(k) is the exponent of 1 + gamma^k, for 0 < k < L;
    z3[0] = L matches no residue, as 1 + gamma^0 = 0.  ``reps`` holds the
    least element t of each cyclotomic coset {t 2^j mod L} of size d: the
    gamma^t are one root of each irreducible of degree d."""
    tables = []
    for d, exponents in enumerate(_PRIMITIVE, 2):
        m, L = sum(1 << e for e in exponents), (1 << d) - 1
        power, log = [0] * L, [0] * (L + 1)
        x = 1
        for i in range(L):
            power[i], log[x] = x, i
            x <<= 1
            if x >> d:
                x ^= m
        z3 = [L] + [3 * log[power[k] ^ 1] % L for k in range(1, L)]
        seen, reps = bytearray(L), []
        for t in range(1, L):
            u, size = t, 0
            while not seen[u]:
                seen[u] = 1
                u, size = 2 * u % L, size + 1
            if size == d:
                reps.append(t)
        tables.append((z3, reps))
    return tuple(tables)


def coset_root_degree(n: int, s: int) -> int | None:
    """The smallest degree d <= min(13, n) of an irreducible factor of
    p = X^n + X^(n-s) + X^(n-2s) + X^(n-3s) + 1, n > 3s, or None: the
    first d at which p has a root in GF(2^d).

    This is the per-irreducible loop that the prefilter's one lookup per
    degree replaced, kept as it was.  p(beta) = beta^n (1 + beta^(-s))^3
    + 1, as X^3 + X^2 + X + 1 = (1 + X)^3 over GF(2), so beta = gamma^t is
    a root iff t s != 0 and 3 Z(-t s) = -t n (mod L).  One root of each
    irreducible of degree d is tested.  Degree 1 is never a hit:
    p(0) = p(1) = 1."""
    tables = coset_root_tables()
    for d in range(2, min(13, n) + 1):
        z3, reps = tables[d - 2]
        L = len(z3)
        a, b = -s % L, -n % L
        for t in reps:
            if z3[t * a % L] == t * b % L:
                return d
    return None


def sylvester_resultant(a: list[int], b: list[int]) -> int:
    """Resultant as the determinant of the Sylvester matrix, evaluated by
    fraction-free (Bareiss) elimination over Z.  Dense low-to-high input."""
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        raise ValueError("zero polynomial")
    n = da + db
    if n == 0:
        return 1
    m = [[0] * n for _ in range(n)]
    for i in range(db):
        for j, c in enumerate(reversed(a)):
            m[i][i + j] = c
    for i in range(da):
        for j, c in enumerate(reversed(b)):
            m[db + i][i + j] = c
    # Bareiss
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def brown_traub_resultant(a: list[int], b: list[int]) -> int:
    """Resultant of a monic a and a nonzero b (dense low-to-high, no
    trailing zeros) by the classical Brown-Traub subresultant sequence:
    every step forms the full pseudo-remainder lc(b)^(delta+1) * a mod b
    and then divides out g * h^delta.  zpoly.resultant runs the same chain,
    so this is a reference, not an independent check: it has its own copies
    of the helpers and no B mod A pre-reduction.  sylvester_resultant is
    the independent one."""

    def content(coeffs):
        g = 0
        for c in coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        return g or 1

    def pseudo_rem(a, b):
        da, db = len(a) - 1, len(b) - 1
        lb = b[-1]
        r = list(a)
        for top in range(da, db - 1, -1):
            lead = r[top]
            for i in range(top):
                r[i] *= lb
            if lead:
                off = top - db
                for i in range(db):
                    r[off + i] -= lead * b[i]
            r[top] = 0
        while r and r[-1] == 0:
            r.pop()
        return r

    def exact_div(coeffs, d):
        out = []
        for c in coeffs:
            q, rr = divmod(c, d)
            if rr:
                raise AssertionError("subresultant division was not exact")
            out.append(q)
        return out

    sign = 1
    if len(a) < len(b):
        if ((len(a) - 1) * (len(b) - 1)) & 1:
            sign = -sign
        a, b = b, a
    if len(b) == 1:
        return sign * b[0] ** (len(a) - 1)
    ca, cb = content(a), content(b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    if ca != 1:
        a = [c // ca for c in a]
    if cb != 1:
        b = [c // cb for c in b]
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & 1 and db & 1:
            sign = -sign
        r = pseudo_rem(a, b)
        if not r:
            return 0  # nontrivial common factor
        a, b = b, exact_div(r, g * h**delta)
        g = a[-1]
        if delta:
            num = g**delta
            h = num if h == 1 else exact_div([num], h ** (delta - 1))[0]
        if len(b) == 1:
            break
    da = len(a) - 1
    num = b[0] ** da
    res = num if h == 1 else exact_div([num], h ** (da - 1))[0]
    return sign * t * res


def swan_resultant(n: int, s: int) -> int:
    """Res(F, n*F - X*F') for the lift F = X^n + X^(n-s) + X^(n-2s) +
    X^(n-3s) + 1 with n > 3s, as a full integer, by Swan's reduction to a
    cubic (derived in ``zpoly._swan_residue``): Res(F, H) = Res(R, E)^g with
    g = gcd(n, s) and Res(R, E) = Res(T, W) / n^(2n/g).  Res(T, W) comes
    exactly from :func:`brown_traub_resultant`, and the division is checked.
    This is the forward cubic of the library's residue in Z/8, taken
    exactly at either parity of n, with its own copies of the cubic helpers;
    it shares neither the reciprocal cubic for even n nor the reduction
    mod 8."""

    def cubic_mul(x, y, t):  # x * y in Z[theta]/(T), t = (t0, t1, t2)
        x0, x1, x2 = x
        y0, y1, y2 = y
        t0, t1, t2 = t
        c0, c1, c2 = x0 * y0, x0 * y1 + x1 * y0, x0 * y2 + x1 * y1 + x2 * y0
        c3, c4 = x1 * y2 + x2 * y1, x2 * y2
        c3 -= c4 * t2
        c2 -= c4 * t1
        c1 -= c4 * t0
        return c0 - c3 * t0, c1 - c3 * t1, c2 - c3 * t2

    def cubic_pow(x, e, t):
        out = (1, 0, 0)
        for bit in bin(e)[2:]:
            out = cubic_mul(out, out, t)
            if bit == "1":
                out = cubic_mul(out, x, t)
        return out

    g, m = gcd(n, s), n - 3 * s
    k = s // g
    t = (n * n * m, n * (n - 2 * s), n - s)
    theta_m = cubic_pow((0, 1, 0), m // g, t)
    w = cubic_mul(theta_m, cubic_pow((3 * s * n * n, 2 * s * n, s), k, t), t)
    sigma = 1 if k & 1 else -1
    W = [n ** (n // g) + sigma * w[0], sigma * w[1], sigma * w[2]]
    while W and W[-1] == 0:
        W.pop()
    if not W:  # W vanishes at every root of T: F has a repeated root
        return 0
    q, r = divmod(brown_traub_resultant(list(t) + [1], W), n ** (2 * n // g))
    if r:
        raise AssertionError(f"n^(2n/g) does not divide Res(T, W) at (n={n}, s={s})")
    return q**g


def companion_power_traces(coeffs: list[int], m_max: int) -> list[int]:
    """Traces of C^m for m = 0..m_max, C the companion matrix of the monic
    polynomial with dense low-to-high coefficients ``coeffs``.  The trace
    of C^m is exactly the m-th power sum of the roots."""
    assert coeffs[-1] == 1
    n = len(coeffs) - 1
    c = [[0] * n for _ in range(n)]
    for i in range(1, n):
        c[i][i - 1] = 1
    for i in range(n):
        c[i][n - 1] = -coeffs[i]
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    traces = []
    for _ in range(m_max + 1):
        traces.append(sum(power[i][i] for i in range(n)))
        power = [
            [sum(power[i][k] * c[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return traces


def pair_power_sum_numeric(coeffs: list[int], k: int) -> int:
    """T_k = sum over root pairs i < j of (a_i * a_j)^k, by expanding over
    high-precision numerical roots and rounding the (provably integer)
    result.  Raises if the numerics are not clearly integral."""
    import mpmath

    mpmath.mp.dps = 80
    roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)], maxsteps=200)
    total = mpmath.mpf(0)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            total += (roots[i] * roots[j]) ** k
    value = mpmath.nint(mpmath.re(total))
    if abs(total - value) > mpmath.mpf("1e-20"):
        raise AssertionError(f"pair power sum not integral: {total}")
    return int(value)


def int_reciprocal(F):
    """X^n F(1/X) of the zpoly IntPoly F of degree n: monic with the
    inverse roots when F(0) = 1, so its power sums S_1, S_2, ... are
    S_-1, S_-2, ... of F.  Needs a nonzero constant term to keep degree n."""
    if not F.constant_term():
        raise ValueError("reciprocal requires a nonzero constant term")
    n = F.terms[0][0]
    return type(F)((n - e, c) for e, c in F.terms)


def series_neg_power_sums(coeffs: list[int], count: int) -> list[int]:
    """[S_-1, ..., S_-count] for the monic polynomial F with dense low-to-high
    ``coeffs`` and F(0) = 1, from the formal power-series identity

        X*F'(X) * sum_{i>=0} (-1)^(i+1) * (F(X) - 1)^i  =  sum_{i>=1} S_-i X^i.

    F - 1 has X-adic order >= 1, so (F - 1)^i vanishes below degree i and
    the sum is finite when truncated at degree ``count``."""
    assert coeffs[0] == coeffs[-1] == 1

    def times(dense, sparse):  # truncated at degree count
        out = [0] * (count + 1)
        for e, c in sparse:
            for i in range(count + 1 - e):
                out[i + e] += c * dense[i]
        return out

    g = [(e, c) for e, c in enumerate(coeffs) if e and c]  # F - 1
    series, power, sign = [-1] + [0] * count, [1] + [0] * count, 1
    while any(power):
        power = times(power, g)
        series = [a + sign * b for a, b in zip(series, power)]
        sign = -sign
    return times(series, [(e, e * c) for e, c in enumerate(coeffs) if e])[1:]


def csv_record(row: list[str]):
    """One survey CSV row as a ``SearchRecord``, checked field by field: four
    fields, ASCII digits in n, s and elapsed_us, a known outcome, and the
    shape rule n >= 7, s >= 1, n > 3s restated here, not read from the
    library; anything else raises the library's ValueError text."""
    from pentaswan.search import CSV_HEADER, OUTCOMES, SearchRecord

    if (len(row) == len(CSV_HEADER) and row[2] in OUTCOMES
            and all(f.isascii() and f.isdigit() for f in row[:2] + row[3:])):
        n, s = int(row[0]), int(row[1])
        if n >= 7 and s >= 1 and n > 3 * s:
            return SearchRecord(n, s, row[2], int(row[3]))
    raise ValueError(f"expected {len(CSV_HEADER)} fields with integer n,s,elapsed_us with "
                     f"n >= 7, s >= 1, n > 3s, elapsed_us >= 0 and an outcome in "
                     f"{','.join(OUTCOMES)}: {','.join(row)}")
