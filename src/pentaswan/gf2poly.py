"""Exact arithmetic and factorization-structure queries for polynomials over GF(2).

A polynomial b_n X^n + ... + b_1 X + b_0 over the two-element field is
stored as the nonnegative integer b_n 2^n + ... + b_1 2 + b_0, so bit i of
the integer is the coefficient of X^i.  Python integers are arbitrary
precision and XOR/shift on them operate a machine word at a time, which
makes this the packed-bitvector representation: addition is ^, and
multiplication/remainder reduce to shifts and XORs.

The public surface works with :class:`BitPoly`, a thin immutable wrapper
around the bit integer.  The module-level underscore helpers operate on raw
integers and carry the performance-sensitive inner loops: the small-factor
prefilter ``_smallest_factor_degree_le``, a root test in GF(2^d), d <=
PREFILTER_DEPTH = 13, on equally gapped pentanomials only, which ``search``
runs to d = ROOT_DEPTH = 19 at large n; the survivor decision
``_survivor_is_irreducible``, gcd(p, p') plus Berlekamp's rank; and
``factor_count``'s loop over gcd(f, f').  A squaring, for
``pow_frobenius``, is two ``bytes.translate`` table maps.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from math import gcd as _int_gcd, isqrt
from typing import Iterable, NamedTuple

__all__ = [
    "BitPoly",
    "FactorCount",
    "PentShape",
    "ShapeError",
    "factor_count",
    "gcd",
    "is_irreducible",
    "is_squarefree",
    "mul",
    "pent_poly",
    "pow_frobenius",
]


class ShapeError(ValueError):
    """Raised for (n, s) pairs outside the valid pentanomial family."""


# ---------------------------------------------------------------------------
# raw integer kernels
# ---------------------------------------------------------------------------

def _degree(a: int) -> int:
    return a.bit_length() - 1


def _mul(a: int, b: int) -> int:
    if a.bit_count() > b.bit_count():
        a, b = b, a
    c = 0
    while a:
        low = a & -a
        c ^= b << (low.bit_length() - 1)
        a ^= low
    return c


def _divmod(a: int, m: int) -> tuple[int, int]:
    if m == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    dm = m.bit_length() - 1
    q = 0
    da = a.bit_length() - 1
    while da >= dm:
        q ^= 1 << (da - dm)
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return q, a


def _rem(a: int, m: int) -> int:
    if m == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    dm = m.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        d = a.bit_length() - b.bit_length()
        if d < 0:
            a, b = b, a
            d = -d
        a ^= b << d
    return a


def _deriv(a: int) -> int:
    # d/dX of sum X^e keeps odd e only; shifting right then masking the even
    # bit positions implements "drop even exponents, lower the rest by one".
    a >>= 1
    k = (a.bit_length() | 1) + 1
    return a & (((1 << k) - 1) // 3)


def _spread_nibble(n: int) -> int:
    r = 0
    for i in range(4):
        if (n >> i) & 1:
            r |= 1 << (2 * i)
    return r


# byte -> the spread of its low (high) nibble, the even (odd) byte of its
# square, since p(X)^2 = p(X^2) in characteristic 2
_SPREAD_LO = bytes(_spread_nibble(b & 15) for b in range(256))
_SPREAD_HI = bytes(_spread_nibble(b >> 4) for b in range(256))


def _sqr(a: int) -> int:
    src = a.to_bytes((a.bit_length() + 7) >> 3, "little")
    out = bytearray(2 * len(src))
    out[0::2] = src.translate(_SPREAD_LO)
    out[1::2] = src.translate(_SPREAD_HI)
    return int.from_bytes(out, "little")


def _sqrt(a: int) -> int:
    # inverse of _sqr for perfect squares: keep the even bit positions
    return int(format(a, "b")[::-2][::-1], 2)


def _exponents(a: int) -> list[int]:
    out = []
    while a:
        d = a.bit_length() - 1
        out.append(d)
        a ^= 1 << d
    return out


def _count_factors_squarefree(g: int) -> int:
    """Number of irreducible factors of squarefree g, by Berlekamp's rank:
    it is dim ker(Q - I) = n - rank(Q - I), where row i of Q is X^(2i) mod g
    for i < n = deg(g).  The rows of Q - I are eliminated by their top bit,
    with the pivot of bit length b in slot b of a list.  For i < half =
    ceil(n/2), 2i < n, so row i is X^(2i) + X^i: zero at i = 0, else of
    bit length 2i + 1, distinct.  Those rows are written straight into
    their slots, and only rows i >= half are eliminated."""
    n = _degree(g)
    half = (n + 1) // 2
    pivots = [0] * (n + 2)
    for i in range(1, half):
        pivots[2 * i + 1] = (1 << 2 * i) | (1 << i)
    rank = max(half - 1, 0)
    g2 = g << 1
    row = _rem(1 << 2 * half, g)
    for i in range(half, n):
        r = row ^ (1 << i)
        while r:
            top = r.bit_length()
            p = pivots[top]
            if not p:
                pivots[top] = r
                rank += 1
                break
            r ^= p
        # X^(2i+2) mod g: shift by 2, then clear bits n+1 and n
        row <<= 2
        if row.bit_length() > n + 1:
            row ^= g2
        if row.bit_length() > n:
            row ^= g
    return n - rank


PREFILTER_DEPTH = 13
ROOT_DEPTH = 19  # the depth of the root test that ``search`` runs at large n

# a primitive polynomial of each degree d = 2..ROOT_DEPTH, by its
# exponents: X has order exactly 2^d - 1 modulo it and generates GF(2^d)*
_PRIMITIVE = ((2, 1, 0), (3, 1, 0), (4, 1, 0), (5, 2, 0), (6, 1, 0), (7, 1, 0),
              (8, 4, 3, 2, 0), (9, 4, 0), (10, 3, 0), (11, 2, 0), (12, 6, 4, 1, 0),
              (13, 4, 3, 1, 0), (14, 5, 3, 1, 0), (15, 1, 0), (16, 5, 3, 2, 0),
              (17, 3, 0), (18, 7, 0), (19, 5, 2, 1, 0))


@cache
def _zech3(d: int) -> array:
    """z3[k] = 3 Z(k) mod L, L = 2^d - 1, Z the Zech logarithm to the base
    gamma = X, and z3[0] = L, in 4-byte entries.  One walk of the powers
    x = X^i fills log[x] = i, a second fills z3 in place, so the build
    peaks at the two tables, about 8 bytes per field element."""
    poly, L, x = sum(1 << e for e in _PRIMITIVE[d - 2]), (1 << d) - 1, 1
    log, z3 = array("I", [0]) * (L + 1), array("I", [L]) * L
    for i in range(L):
        log[x] = i
        x = x << 1 ^ poly if x >> d - 1 else x << 1
    for i in range(1, L):
        x = x << 1 ^ poly if x >> d - 1 else x << 1
        z3[i] = 3 * log[x ^ 1] % L
    return z3


@cache
def _root_row(d: int, h: int, w: int) -> bytearray:
    """The lookup row of degree d for h | L, M = L/h and w = M g, g | h,
    built on first use, as all rows to d = 19 take 15 MB: row[y] = 1 iff
    some m in [1, M) has z3[m h] = m y (mod w); with e = gcd(m, w), iff
    e | z3[m h] and y = (z3[m h]/e) (m/e)^-1 (mod w/e), e residues in one slice."""
    z3, row = _zech3(d), bytearray(w)
    for m in _orbit_leaders(((1 << d) - 1) // h):
        z, e = z3[m * h], _int_gcd(m, w)
        if z % e == 0:
            step = w // e
            row[z // e * pow(m // e, -1, step) % step::step] = b"\1" * e
    return row


@cache
def _orbit_leaders(M: int) -> array:
    """The least m in [1, M) of each orbit {m 2^j mod M}: 2m marks m's y, as
    z3[2k] = 2 z3[k].  Cached for every w at this M, in 4-byte entries."""
    seen, leaders = bytearray(M), []
    for m in range(1, M):
        if not seen[m]:
            leaders.append(m)
            while not seen[m]:
                seen[m] = 1
                m = 2 * m % M
    return array("I", leaders)


def _build_root_rows() -> None:
    """The 276 rows of degree d <= PREFILTER_DEPTH, which ``_pool`` builds before it forks."""
    for d in range(2, PREFILTER_DEPTH + 1):
        L = (1 << d) - 1
        divisors = {f for i in range(1, isqrt(L) + 1) if L % i == 0 for f in (i, L // i)}
        for h in divisors:
            for g in (g for g in divisors if h % g == 0):
                _root_row(d, h, L // h * g)


def _root_degree(n: int, s: int, hi: int) -> int | None:
    """The smallest d in [2, min(hi, n)] at which p = X^n + X^(n-s) +
    X^(n-2s) + X^(n-3s) + 1, n > 3s, has a root in GF(2^d), or None: the
    smallest degree of an irreducible factor, if it is <= hi.  p(beta) =
    beta^n (1 + beta^(-s))^3 + 1, as 1 + X + X^2 + X^3 = (1 + X)^3, so with
    a = -s and b = -n mod L, beta = gamma^t is a root iff z3[t a] = t b
    (mod L); z3[0] = L matches nothing.  All t in Z/L are tested: a hit in
    a coset smaller than d is a root in a subfield GF(2^e), e | d, e >= 2
    (p(0) = p(1) = 1), found at e already.  The hits depend only
    on the group <(a, b)> in (Z/L)^2, generated by (h, y) and (0, w): h =
    gcd(a, L), M = L/h, w = M gcd(b, h), y = u b mod w, u = (a/h)^-1 mod M
    (0 for M = 1).  So one lookup decides: _root_row(d, h, w)[y]."""
    for d in range(2, min(hi, n) + 1):
        L = (1 << d) - 1
        a, b = -s % L, -n % L
        h = _int_gcd(a, L)
        w = L // h * _int_gcd(b, h)
        if _root_row(d, h, w)[pow(a // h, -1, L // h) * b % w]:
            return d
    return None


def _smallest_factor_degree_le(p: int, depth: int = PREFILTER_DEPTH) -> int | None:
    """The small-factor prefilter: for an equally gapped pentanomial,
    read off p's bits, :func:`_root_degree` to ``depth``; None for any
    other p, which goes to the survivor decision.  The benchmark's tracer
    wraps this name as its prefilter boundary."""
    if p & 1:
        n = _degree(p)
        s = n - _degree(p ^ (1 << n))
        m = n - 3 * s
        if m > 0 and p == (1 << n | 1 << n - s | 1 << n - 2 * s | 1 << m | 1):
            return _root_degree(n, s, depth)
    return None


def _survivor_is_irreducible(p: int) -> bool:
    """The survivor decision: p, of degree >= 1, is irreducible iff
    gcd(p, p') = 1 and Berlekamp's rank counts one factor; the rank alone
    would count one on the cube of an irreducible."""
    return _gcd(p, _deriv(p)) == 1 and _count_factors_squarefree(p) == 1


# ---------------------------------------------------------------------------
# public polynomial type
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, repr=False)
class BitPoly:
    """Immutable dense polynomial over GF(2), packed as an int bitvector."""

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("coefficient bitvector must be nonnegative")

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "BitPoly":
        bits = 0
        for e in exponents:
            bits ^= 1 << e
        return cls(bits)

    @classmethod
    def from_hex(cls, text: str) -> "BitPoly":
        """Parse the CLI text form: lowercase hex, first character holding
        coefficients of X^0..X^3 (little-endian nibble order)."""
        if not text or any(c not in "0123456789abcdef" for c in text):
            raise ValueError(f"not a lowercase hex polynomial: {text!r}")
        return cls(int(text[::-1], 16))

    def to_hex(self) -> str:
        return format(self.bits, "x")[::-1]

    @property
    def degree(self) -> int | float:
        """Index of the highest set coefficient; -inf for the zero polynomial."""
        return self.bits.bit_length() - 1 if self.bits else float("-inf")

    def exponents(self) -> list[int]:
        """Exponents with coefficient 1, in decreasing order."""
        return _exponents(self.bits)

    def is_zero(self) -> bool:
        return self.bits == 0

    def __bool__(self) -> bool:
        return bool(self.bits)

    def __repr__(self) -> str:
        if self.bits == 0:
            return "BitPoly(0)"
        exps = self.exponents()
        if len(exps) > 12:
            return f"BitPoly(degree={exps[0]}, weight={len(exps)})"
        terms = "+".join("1" if e == 0 else "X" if e == 1 else f"X^{e}" for e in exps)
        return f"BitPoly({terms})"


class FactorCount(NamedTuple):
    """Irreducible-factor count (with multiplicity) and its parity."""

    total: int
    parity: str  # "even" | "odd"


@dataclass(frozen=True)
class PentShape:
    """Degree/gap pair (n, s) of the pentanomial X^n + X^(n-s) + X^(n-2s)
    + X^(n-3s) + 1.  Valid whenever n >= 7, s >= 1 and n > 3s, which keeps
    the five exponents distinct."""

    n: int
    s: int

    def __post_init__(self):
        if self.n < 7:
            raise ShapeError(f"n must be at least 7, got n={self.n}")
        if self.s < 1:
            raise ShapeError(f"s must be positive, got s={self.s}")
        if self.n <= 3 * self.s:
            raise ShapeError(
                f"need n > 3s for distinct exponents, got n={self.n}, s={self.s}"
            )

    @property
    def exponents(self) -> tuple[int, int, int, int, int]:
        n, s = self.n, self.s
        return (n, n - s, n - 2 * s, n - 3 * s, 0)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def pent_poly(shape: PentShape) -> BitPoly:
    """The five-term polynomial X^n + X^(n-s) + X^(n-2s) + X^(n-3s) + 1."""
    return BitPoly.from_exponents(shape.exponents)


def mul(a: BitPoly, b: BitPoly) -> BitPoly:
    """Product in GF(2)[X]."""
    return BitPoly(_mul(a.bits, b.bits))


def gcd(a: BitPoly, b: BitPoly) -> BitPoly:
    """Greatest common divisor; monic automatically over GF(2)."""
    if not a.bits and not b.bits:
        raise ValueError("gcd(0, 0) is undefined")
    return BitPoly(_gcd(a.bits, b.bits))


def is_squarefree(p: BitPoly) -> bool:
    """True iff gcd(p, p') = 1, for nonzero p."""
    if not p.bits:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    return _gcd(p.bits, _deriv(p.bits)) == 1


def pow_frobenius(m: BitPoly, k: int) -> BitPoly:
    """X^(2^k) reduced mod m, by k modular squarings."""
    if _degree(m.bits) < 1:
        raise ValueError("modulus must have degree at least 1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    h = _rem(2, m.bits)
    for _ in range(k):
        h = _rem(_sqr(h), m.bits)
    return BitPoly(h)


def is_irreducible(p: BitPoly) -> bool:
    """True iff p, of degree n >= 1, is irreducible over GF(2).  An equally
    gapped pentanomial is decided by the prefilter's root test when it
    finds a factor of degree <= 13; any other p, and a pentanomial it
    leaves, by the survivor decision: gcd(p, p') = 1 and Berlekamp's rank
    of Q - I is n - 1 (one factor)."""
    n = _degree(p.bits)
    if n < 1:
        raise ValueError("irreducibility needs degree at least 1")
    if _deriv(p.bits) == 0:
        # not for correctness (gcd(p, 0) = p): a perfect square skips the prefilter
        return False
    d = _smallest_factor_degree_le(p.bits)
    return d == n if d is not None else _survivor_is_irreducible(p.bits)


def factor_count(p: BitPoly) -> FactorCount:
    """Count irreducible factors with multiplicity.

    In characteristic 2, c = gcd(f, f') is a perfect square and f / c, the
    product of the factors of odd multiplicity, is squarefree; so the
    count is Berlekamp's rank on f / c plus twice the count of sqrt(c).
    When f' = 0, c = f and f / c = 1.  For squarefree p this is the plain
    number of irreducible factors.
    """
    f = p.bits
    if _degree(f) < 1:
        raise ValueError("factor counting needs degree at least 1")
    total, weight = 0, 1
    while f != 1:
        c = _gcd(f, _deriv(f))
        total += weight * _count_factors_squarefree(_divmod(f, c)[0])
        f, weight = _sqrt(c), 2 * weight
    return FactorCount(total, "odd" if total & 1 else "even")
