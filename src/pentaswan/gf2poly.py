"""Exact arithmetic and factorization-structure queries for polynomials over GF(2).

A polynomial b_n X^n + ... + b_1 X + b_0 over the two-element field is
stored as the nonnegative integer b_n 2^n + ... + b_1 2 + b_0, so bit i of
the integer is the coefficient of X^i.  Python integers are arbitrary
precision and XOR/shift on them operate a machine word at a time, which
makes this the packed-bitvector representation: addition is ^, and
multiplication/remainder reduce to shifts and XORs.

The public surface works with :class:`BitPoly`, a thin immutable wrapper
around the bit integer.  The module-level underscore helpers operate on raw
integers and carry the performance-sensitive inner loops.  A squaring is
two ``bytes.translate`` table maps.  ``_smallest_factor_degree_le`` is
the small-factor prefilter: one short squaring chain per polynomial, each
step a square and a plain remainder modulo p, with folded gcds.  Factor
counts take no chain and no gcd: each squarefree part is counted by
Berlekamp's rank of Q - I, with Q the matrix of squaring modulo the part.
``_smallest_factor_degree`` runs the prefilter at PREFILTER_DEPTH = 13;
a polynomial that survives it is irreducible iff gcd(p, p') = 1 and that
rank counts one factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

__all__ = [
    "BitPoly",
    "FactorCount",
    "PentShape",
    "ShapeError",
    "derivative",
    "factor_count",
    "gcd",
    "has_factor_of_degree_le",
    "is_irreducible",
    "is_squarefree",
    "mul",
    "pent_poly",
    "pow_frobenius",
    "reciprocal",
    "rem",
    "squarefree_parts",
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
    if a == 0:
        return 0
    return int(format(a, "b")[::-2][::-1], 2)


def _exponents(a: int) -> list[int]:
    out = []
    while a:
        d = a.bit_length() - 1
        out.append(d)
        a ^= 1 << d
    return out


def _squarefree_parts(f: int) -> list[tuple[int, int]]:
    """Squarefree decomposition f = prod g_i^e_i with the g_i squarefree
    and pairwise coprime; returns [(g_i, e_i), ...] skipping trivial g_i."""
    parts: list[tuple[int, int]] = []
    stack = [(f, 1)]
    while stack:
        f, e = stack.pop()
        if _degree(f) < 1:
            continue
        fp = _deriv(f)
        if fp == 0:
            # all exponents even: f is a perfect square
            stack.append((_sqrt(f), 2 * e))
            continue
        c = _gcd(f, fp)
        w = _divmod(f, c)[0]
        i = 1
        while w != 1:
            y = _gcd(w, c)
            fac = _divmod(w, y)[0]
            if fac != 1:
                parts.append((fac, e * i))
            w = y
            c = _divmod(c, y)[0]
            i += 1
        if c != 1:
            stack.append((_sqrt(c), 2 * e))
    return parts


def _reverse(a: int) -> int:
    """Bit-reversal of a over its own length: X^deg(a) * a(1/X)."""
    return int(format(a, "b")[::-1], 2)


def _count_factors_squarefree(g: int) -> int:
    """Number of irreducible factors of squarefree g, by Berlekamp's rank:
    it is dim ker(Q - I) = n - rank(Q - I), where row i of Q is X^(2i) mod g
    for i < n = deg(g).  The rows of Q - I are eliminated by their top bit."""
    n = _degree(g)
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


def _fold(a: int, L: int) -> int:
    """a mod (X^L + 1).  As X^(2w) + 1 = (X^w + 1)^2, XORing the halves of a
    value shorter than 2w reduces it mod X^w + 1, for w = L * 2^j down to L."""
    w = L
    while w < a.bit_length():
        w <<= 1
    while w > L:
        w >>= 1
        a = (a >> w) ^ (a & ((1 << w) - 1))
    return a


PREFILTER_DEPTH = 13


def _smallest_factor_degree_le(p: int, d_max: int) -> int | None:
    """The small-factor prefilter: the smallest degree d <= d_max of an
    irreducible factor of p, or None.

    The squaring chain h_k = X^(2^k) mod p runs on p itself for
    k <= min(d_max, n): gcd(h_k - X, p) != 1 first at k = d, taken as
    gcd(X^L + 1, p mod (X^L + 1)) on L bits when L = 2^k - 1 < n and
    p(0) = 1.  Such a gcd does not read h_k, which is then the monomial
    X^(2^k), of degree at most n, so a chain of depth 13 does real
    reduction work at only its last few steps.  The benchmark's tracer
    wraps this name as its prefilter boundary.
    """
    n = _degree(p)
    h = 2
    for k in range(1, min(d_max, n) + 1):
        h = _rem(_sqr(h), p)
        L = (1 << k) - 1  # X^(2^k) - X = X (X^L - 1); X does not divide p if p(0) = 1
        g = _gcd((1 << L) | 1, _fold(p, L)) if p & 1 and L < n else _gcd(h ^ 2, p)
        if g != 1:
            return k
    return None


def _smallest_factor_degree(p: int) -> int | None:
    """Smallest degree d of an irreducible factor of p when d <= 13 (the
    prefilter at PREFILTER_DEPTH); else deg(p) if p is irreducible; else
    None.  A survivor of the prefilter is irreducible iff it is squarefree,
    gcd(p, p') = 1, and Berlekamp's rank counts one factor; the rank alone
    would count one on the cube of an irreducible.
    """
    d = _smallest_factor_degree_le(p, PREFILTER_DEPTH)
    if d is None and _gcd(p, _deriv(p)) == 1 and _count_factors_squarefree(p) == 1:
        return _degree(p)
    return d


# ---------------------------------------------------------------------------
# public polynomial type
# ---------------------------------------------------------------------------

class BitPoly:
    """Immutable dense polynomial over GF(2), packed as an int bitvector."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits < 0:
            raise ValueError("coefficient bitvector must be nonnegative")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BitPoly is immutable")

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

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def coeff(self, i: int) -> int:
        return (self.bits >> i) & 1

    def exponents(self) -> list[int]:
        """Exponents with coefficient 1, in decreasing order."""
        return _exponents(self.bits)

    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "BitPoly") -> "BitPoly":
        return BitPoly(self.bits ^ other.bits)

    __add__ = __xor__
    __sub__ = __xor__

    def __mul__(self, other: "BitPoly") -> "BitPoly":
        return BitPoly(_mul(self.bits, other.bits))

    def __mod__(self, other: "BitPoly") -> "BitPoly":
        return BitPoly(_rem(self.bits, other.bits))

    def __divmod__(self, other: "BitPoly") -> tuple["BitPoly", "BitPoly"]:
        q, r = _divmod(self.bits, other.bits)
        return BitPoly(q), BitPoly(r)

    def __floordiv__(self, other: "BitPoly") -> "BitPoly":
        return BitPoly(_divmod(self.bits, other.bits)[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, BitPoly) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((BitPoly, self.bits))

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


ZERO = BitPoly(0)
ONE = BitPoly(1)
X = BitPoly(2)


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


def reciprocal(p: BitPoly) -> BitPoly:
    """X^deg(p) * p(1/X), the bit-reversal of p.  Requires p(0) = 1 so the
    degree is preserved (and the map is an involution)."""
    if not p.bits & 1:
        raise ValueError("reciprocal requires a nonzero constant term")
    return BitPoly(_reverse(p.bits))


def mul(a: BitPoly, b: BitPoly) -> BitPoly:
    """Product in GF(2)[X]."""
    return BitPoly(_mul(a.bits, b.bits))


def rem(a: BitPoly, m: BitPoly) -> BitPoly:
    """Remainder of a modulo m, for nonzero m."""
    return BitPoly(_rem(a.bits, m.bits))


def gcd(a: BitPoly, b: BitPoly) -> BitPoly:
    """Greatest common divisor; monic automatically over GF(2)."""
    if not a.bits and not b.bits:
        raise ValueError("gcd(0, 0) is undefined")
    return BitPoly(_gcd(a.bits, b.bits))


def derivative(p: BitPoly) -> BitPoly:
    """Formal derivative; terms of even exponent vanish in characteristic 2."""
    return BitPoly(_deriv(p.bits))


def is_squarefree(p: BitPoly) -> bool:
    """True iff gcd(p, p') = 1, for nonzero p."""
    if not p.bits:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    return _gcd(p.bits, _deriv(p.bits)) == 1


def squarefree_parts(p: BitPoly) -> list[tuple[BitPoly, int]]:
    """Decompose nonzero p as a product of squarefree, pairwise-coprime
    parts with multiplicities."""
    if not p.bits:
        raise ValueError("cannot decompose the zero polynomial")
    return [(BitPoly(g), e) for g, e in _squarefree_parts(p.bits)]


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
    """True iff p, of degree n >= 1, is irreducible over GF(2): the
    prefilter chain finds no factor of degree <= 13 below n, and then
    gcd(p, p') = 1 and Berlekamp's rank of Q - I is n - 1 (one factor)."""
    n = _degree(p.bits)
    if n < 1:
        raise ValueError("irreducibility needs degree at least 1")
    # not for correctness (gcd(p, 0) = p): a perfect square skips the prefilter
    return _deriv(p.bits) != 0 and _smallest_factor_degree(p.bits) == n


def factor_count(p: BitPoly) -> FactorCount:
    """Count irreducible factors with multiplicity.

    Squarefree decomposition first, then Berlekamp's rank on each part: a
    part of multiplicity e with r irreducible factors contributes e * r.
    For squarefree p this is the plain number of irreducible factors.
    """
    if _degree(p.bits) < 1:
        raise ValueError("factor counting needs degree at least 1")
    total = sum(e * _count_factors_squarefree(g) for g, e in _squarefree_parts(p.bits))
    return FactorCount(total, "odd" if total & 1 else "even")


def has_factor_of_degree_le(p: BitPoly, d_max: int) -> bool:
    """True iff p has an irreducible factor of degree at most d_max.

    Checks gcd(X^(2^d) - X, p) for d = 1..d_max: d_max modular squarings
    plus d_max gcds, each on at most 2^d bits while 2^d <= deg(p) and
    p(0) = 1, else at full size.  Requires deg(p) > d_max >= 1.
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    if _degree(p.bits) <= d_max:
        raise ValueError("require deg(p) > d_max")
    return _smallest_factor_degree_le(p.bits, d_max) is not None
