"""Exact integer-polynomial machinery behind the mod-8 discriminant analysis.

Everything here is arbitrary-precision and exact: power sums of the roots
via Newton's identities (exact values; the CLI reduces them mod 2^k),
resultants of a monic A and any B as B mod A followed by the classical
subresultant remainder sequence (every division exact and checked), and
the polynomial discriminant reduced mod 8 only after it has been computed
exactly in Z.  For the equally gapped lift
X^n + X^(n-s) + X^(n-2s) + X^(n-3s) + 1 with n > 3s, Swan's technique
shrinks that residue to the norm of a quadratic over a monic cubic (its
reciprocal for even n) in Z/8, not exactly; any other F takes Res(F, F').

An :class:`IntPoly` is a sparse list of (exponent, coefficient) pairs; the
polynomials of interest here have a handful of terms at desk-scale degrees,
and the sparse form keeps Newton's recurrence at a few multiplications per
power sum regardless of the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .gf2poly import BitPoly

__all__ = [
    "ConsistencyError",
    "IntPoly",
    "discriminant",
    "discriminant_mod8",
    "h_poly",
    "lift",
    "power_sums",
    "resultant",
    "second_power_sums",
]


class ConsistencyError(RuntimeError):
    """An identity that must hold mathematically failed: implementation bug."""


@dataclass(frozen=True, slots=True, repr=False)
class IntPoly:
    """Immutable sparse polynomial over Z: (exponent, coefficient) pairs,
    exponents strictly decreasing, coefficients nonzero.  Any iterable of
    pairs is accepted; equal exponents are merged."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        merged: dict[int, int] = {}
        for e, c in self.terms:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            merged[e] = merged.get(e, 0) + c
        object.__setattr__(self, "terms", tuple(
            sorted(((e, c) for e, c in merged.items() if c), reverse=True)
        ))

    @property
    def degree(self) -> int | float:
        return self.terms[0][0] if self.terms else float("-inf")

    @property
    def is_monic(self) -> bool:
        return bool(self.terms) and self.terms[0][1] == 1

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        return self.terms[-1][1] if self.terms and self.terms[-1][0] == 0 else 0

    def derivative(self) -> "IntPoly":
        return IntPoly((e - 1, e * c) for e, c in self.terms if e)

    def to_dense(self) -> list[int]:
        """Low-to-high coefficient list; [] for the zero polynomial."""
        if not self.terms:
            return []
        out = [0] * (self.terms[0][0] + 1)
        for e, c in self.terms:
            out[e] = c
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "IntPoly(0)"
        if len(self.terms) > 10:
            return f"IntPoly(degree={self.terms[0][0]}, terms={len(self.terms)})"
        bits = []
        for e, c in self.terms:
            mono = "1" if e == 0 else "X" if e == 1 else f"X^{e}"
            bits.append(mono if c == 1 and e else f"{c}" if e == 0 else f"{c}*{mono}")
        return "IntPoly(" + " + ".join(bits) + ")"


def lift(p: BitPoly) -> IntPoly:
    """The 0/1-coefficient integer lift of a binary polynomial."""
    if p.is_zero():
        raise ValueError("cannot lift the zero polynomial")
    return IntPoly((e, 1) for e in p.exponents())


def h_poly(F: IntPoly) -> IntPoly:
    """n*F(X) - X*F'(X) for monic F of degree n.

    Each term c*X^e maps to c*(n-e)*X^e, so the leading term drops out; for
    the lift of an equally gapped pentanomial the result is s*X^(n-s) +
    2s*X^(n-2s) + 3s*X^(n-3s) + n.
    """
    if not F.is_monic or F.degree < 1:
        raise ValueError("h_poly requires a monic polynomial of degree >= 1")
    n = F.terms[0][0]
    return IntPoly((e, c * (n - e)) for e, c in F.terms if e != n)


def power_sums(F: IntPoly, upto: int) -> list[int]:
    """Power sums [S_0, ..., S_upto] of the roots of monic F via Newton's identities.

    With F = X^n + F_{n-1} X^(n-1) + ... + F_0 and S_m the sum of the m-th
    powers of the roots (with multiplicity):

        S_m = -m*F_{n-m} - sum_{i=1}^{m-1} F_{n-i} * S_{m-i}     (m <= n)
        S_m = -sum_{i=1}^{n} F_{n-i} * S_{m-i}                   (m > n)

    and S_0 = n.  Exact integer arithmetic throughout.
    """
    if not F.is_monic or F.degree < 1:
        raise ValueError("power sums require a monic polynomial of degree >= 1")
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    n = F.terms[0][0]
    # nonzero F_{n-i} as (offset i, coefficient); terms are exponent-descending,
    # so the offsets come out increasing
    offs = [(n - e, c) for e, c in F.terms if e != n]
    S = [n]
    for m in range(1, upto + 1):
        acc = 0
        for i, c in offs:
            if i < m:
                acc += c * S[m - i]
            elif i == m:
                acc += m * c
            else:
                break
        S.append(-acc)
    return S


def second_power_sums(S: list[int], k: int) -> int:
    """T_k = sum over root pairs i < j of (a_i * a_j)^k, from the identity
    T_k = (S_k^2 - S_{2k}) / 2 on the exact power sums S = [S_0, S_1, ...]."""
    if not 0 <= 2 * k < len(S):
        raise ValueError(f"need k >= 0 and power sums up to S_{2*k}, got {len(S)} of them")
    num = S[k] ** 2 - S[2 * k]
    if num & 1:
        raise ConsistencyError(f"S_{k}^2 - S_{2*k} is odd; power sums corrupted")
    return num // 2


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------

def _quo(c: int, d: int) -> int:
    q, rr = divmod(c, d)
    if rr:
        raise ConsistencyError("subresultant division was not exact")
    return q


def _exact_div(coeffs: list[int], d: int) -> list[int]:
    return [_quo(c, d) for c in coeffs]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b, for dense a, b with deg a >= deg b >= 1."""
    db, lb = len(b) - 1, b[-1]
    r = a[:]
    for top in range(len(a) - 1, db - 1, -1):
        c = r.pop()
        r = [lb * x for x in r]
        if c:
            r[top - db:] = [x - c * y for x, y in zip(r[top - db:], b)]
    while r and r[-1] == 0:
        r.pop()
    return r


def resultant(A: IntPoly, B: IntPoly) -> int:
    """Exact resultant of A and B over Z, by the subresultant remainder
    sequence.  For monic A with roots a_1..a_n (with multiplicity), it is
    the product of B(a_i), which is what makes it an independent check on
    root-product identities.  So B may be reduced modulo A first, exactly,
    as A is monic, and cont(B) is split off.  Then comes the classical
    Brown-Traub/Collins chain: each step takes the pseudo-remainder
    lc(b)^(delta+1) * a mod b and divides out g * h^delta, with g = lc(a)
    and h the chain's principal coefficient; every degree drop delta is at
    least 1, so h moves to g^delta / h^(delta-1).  Every division is
    checked; an inexact one raises ConsistencyError.

    Requires monic A of degree >= 1 and nonzero B.
    """
    if not A.is_monic or A.degree < 1:
        raise ValueError("resultant requires a monic first argument of degree >= 1")
    if B.is_zero():
        raise ValueError("resultant of the zero polynomial is not supported")
    a, b = A.to_dense(), B.to_dense()
    d = len(a) - 1
    for top in range(len(b) - 1, d - 1, -1):  # b mod a
        if b[top]:
            b[top - d:top] = [x - b[top] * y for x, y in zip(b[top - d:top], a)]
    del b[d:]
    while b and b[-1] == 0:
        b.pop()
    # Res(A, B) = cont(B)^deg A * Res(A, B / cont(B)); b = [] gives cb = 0
    cb = gcd(*b)
    t = cb**d
    if cb > 1:
        b = [c // cb for c in b]
    sign, g, h = 1, 1, 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        a, b = b, _exact_div(_prem(a, b), g * h**delta)
        g = a[-1]
        h = _quo(g**delta, h ** (delta - 1))
    if not b:
        return 0  # nontrivial common factor
    da = len(a) - 1
    return sign * t * _quo(b[0] ** da, h ** (da - 1))


_Triple = tuple[int, int, int]


def _cubic_mul(x: _Triple, y: _Triple, t: _Triple) -> _Triple:
    """x * y in (Z/8)[theta]/(T), T = theta^3 + t2*theta^2 + t1*theta + t0,
    t = (t0, t1, t2), on triples (c0, c1, c2)."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    t0, t1, t2 = t
    c0, c1, c2 = x0 * y0, x0 * y1 + x1 * y0, x0 * y2 + x1 * y1 + x2 * y0
    c3, c4 = x1 * y2 + x2 * y1, x2 * y2
    c3 -= c4 * t2  # theta^4 = -theta * (t2*theta^2 + t1*theta + t0)
    c2 -= c4 * t1
    c1 -= c4 * t0
    return (c0 - c3 * t0) & 7, (c1 - c3 * t1) & 7, (c2 - c3 * t2) & 7  # theta^3 too


def _cubic_pow(x: _Triple, e: int, t: _Triple) -> _Triple:
    """x^e in (Z/8)[theta]/(T), by square-and-multiply."""
    out = (1, 0, 0)
    for bit in bin(e)[2:]:
        out = _cubic_mul(out, out, t)
        if bit == "1":
            out = _cubic_mul(out, x, t)
    return out


def _swan_residue(n: int, s: int) -> int:
    """Res(F, n*F - X*F') mod 8 for F = X^n + X^(n-s) + X^(n-2s) + X^(n-3s) + 1
    with n > 3s, by Swan's reduction to a cubic, all of it in Z/8.

    Write P(Y) = Y^3 + Y^2 + Y + 1, m = n - 3s, g = gcd(n, s), k = s/g and
    sigma = -(-1)^k.  F - 1 = X^m * P(X^s) and H = n*F - X*F' = s*X^m *
    (X^(2s) + 2X^s + 3) + n, so H * P(X^s) = R(X^s) (mod F) for R(Y) =
    nY^3 + (n-s)Y^2 + (n-2s)Y + m.  F is 1 on every root of P(X^s), so
    Res(F, P(X^s)) = +-1, and the product of F over the s roots of X^s =
    gamma, for each root gamma of R, closes in gamma: Res(F, H) = Res(R, E)^g
    with E(Y) = 1 - (-1)^k * P(Y)^k * Y^(m/g).  The norm of W below, the
    determinant of multiplication by W, is taken in Z/8, where the odd
    square n^(2n/g) or m^(2n/g) is 1.

    Odd n: theta = n*gamma is a root of the monic T(Z) = Z^3 + (n-s)Z^2 +
    n(n-2s)Z + n^2*m, and Res(T, W) = n^(2n/g) * Res(R, E) for W = n^(n/g) +
    sigma * theta^(m/g) * (s*(theta^2 + 2n*theta + 3n^2))^k in Z[theta]/(T),
    the cubic factor being n^3 * P(theta/n) mod T.

    Even n, odd s, so m odd: R*(Y) = Y^3 * R(1/Y) = mY^3 + (n-2s)Y^2 +
    (n-s)Y + n and, P being palindromic, E*(Y) = Y^(n/g) * E(1/Y) =
    Y^(n/g) - (-1)^k * P(Y)^k.  R(0) = m and E(0) = 1 are nonzero, so
    Res(R*, E*) = (-1)^(3n/g) * Res(R, E), a sign that is (-1)^n = 1 once
    raised to g.  theta = m*gamma, for the roots gamma of R*, is a root of
    the monic T*(Z) = Z^3 + (n-2s)Z^2 + m(n-s)Z + m^2*n, and Res(T*, W*) =
    m^(2n/g) * Res(R*, E*) for W* = theta^(n/g) + sigma * m^(m/g) *
    (-s*(theta^2 + 2m*theta + 3m^2))^k in Z[theta]/(T*).

    n and s both even: F = G(X^2), disc(G(X^2)) = (-4)^(n/2) * G(0) *
    disc(G)^2 and n >= 8, so 8 divides D = +-Res(F, H): the residue is 0.
    """
    if not (n | s) & 1:
        return 0
    g, m = gcd(n, s), n - 3 * s
    k, sigma = s // g, 1 if s // g & 1 else -1
    if n & 1:  # theta = n*gamma over the roots gamma of R
        lead, t2, t1, t0, c, e = n, n - s, n - 2 * s, m, s, m // g
    else:  # theta = m*gamma over the roots gamma of R*
        lead, t2, t1, t0, c, e = m, n - 2 * s, n - s, n, -s, n // g
    t = (lead * lead * t0 & 7, lead * t1 & 7, t2 & 7)
    cubic = _cubic_pow((3 * c * lead * lead & 7, 2 * c * lead & 7, c & 7), k, t)
    scalar, power = (pow(lead, lead // g, 8), 0, 0), _cubic_pow((0, 1, 0), e, t)
    head, tail = (scalar, power) if n & 1 else (power, scalar)  # W = head + sigma*tail*cubic
    w = _cubic_mul(tail, cubic, t)
    a0, a1, a2 = a = tuple(x + sigma * y for x, y in zip(head, w))
    b0, b1, b2 = b = _cubic_mul(a, (0, 1, 0), t)  # theta * W
    c0, c1, c2 = _cubic_mul(b, (0, 1, 0), t)  # theta^2 * W
    norm = a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)
    return pow(norm, g, 8)


def _disc_sign(n: int) -> int:
    return -1 if (n * (n - 1) // 2) & 1 else 1


def discriminant(F: IntPoly) -> int:
    """Exact discriminant of monic F: (-1)^(n(n-1)/2) * Res(F, F')."""
    if not F.is_monic or F.degree < 2:
        raise ValueError("discriminant requires a monic polynomial of degree >= 2")
    n = F.terms[0][0]
    return _disc_sign(n) * resultant(F, F.derivative())


def discriminant_mod8(F: IntPoly) -> int:
    """Discriminant of monic F with F(0) = 1, reduced mod 8.

    The constant-term-1 hypothesis makes the product of H = n*F - X*F'
    over the roots, Res(F, H), equal Res(F, F'), so the discriminant is
    (-1)^(n(n-1)/2) * Res(F, H).  For F exactly X^n + X^(n-s) + X^(n-2s) +
    X^(n-3s) + 1, n > 3s, Swan's reduction to a cubic (:func:`_swan_residue`)
    gives Res(F, H) mod 8 in Z/8; a repeated root gives 0.  On one core of a
    2-vCPU Xeon (CPython 3.11) that takes 0.010-0.015 ms at (2999, 2),
    (2999, 7), (2998, 5), (2992, 3) and (256, 3), where the exact Res(F, H)
    takes 0.29 s, 1.2 s, 0.64 s, 0.33 s and 2.8 ms.  Any other F, a near
    miss included, takes ``discriminant(F) % 8``, exact until the end, as
    Z/8 is not a domain.
    """
    if F.constant_term() != 1:
        raise ValueError("requires constant term 1")
    if not F.is_monic or F.degree < 2:
        raise ValueError("requires a monic polynomial of degree >= 2")
    n = F.terms[0][0]
    s = n - F.terms[1][0]
    if n > 3 * s and F.terms == tuple((e, 1) for e in (n, n - s, n - 2 * s, n - 3 * s, 0)):
        return _disc_sign(n) * _swan_residue(n, s) % 8
    return discriminant(F) % 8
