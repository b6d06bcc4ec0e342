"""Closed-form parity and reducibility predicates for binary polynomials.

The engine is the discriminant bridge: for squarefree f over GF(2) with
integer lift F, the number of irreducible factors t_f satisfies

    t_f = deg(f)  (mod 2)   iff   D(F) = 1 (mod 8).

(For such f the discriminant is odd, and 1 mod 4 by Stickelberger, so the
residue is in fact 1 or 5.)  On top of the bridge sit the closed forms:
Swan's classical three-case theorem for trinomials X^n + X^k + 1, and the
equally gapped pentanomial family X^n + X^(n-s) + X^(n-2s) + X^(n-3s) + 1
with even s, whose lift has discriminant 1 mod 8 exactly when
n = +-1 (mod 8).

An even factor count certifies reducibility.  An odd count certifies
nothing: irreducibility has odd parity, but so does e.g. a product of three
irreducibles.  ``ParityVerdict`` carries that asymmetry explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gf2poly
from .gf2poly import BitPoly, PentShape

__all__ = [
    "OutOfTheoryError",
    "ParityVerdict",
    "brute_force_parity",
    "decimation_reducible",
    "parity_from_discriminant",
    "pent_discriminant_closed_form",
    "pent_parity",
    "thm1_reducible",
    "trinomial_parity",
]

PARITIES = ("even", "odd")
SOURCES = ("closed_form", "discriminant", "brute_force")


class OutOfTheoryError(ValueError):
    """The requested closed form is not established for these parameters."""


@dataclass(frozen=True)
class ParityVerdict:
    """Parity of the irreducible-factor count, plus where it came from.

    ``implies_reducible`` is True exactly for even parity.  Odd parity is
    necessary for irreducibility but never sufficient, so an odd verdict is
    always inconclusive about irreducibility.
    """

    parity: str
    source: str

    def __post_init__(self):
        if self.parity not in PARITIES:
            raise ValueError(f"parity must be one of {PARITIES}")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}")

    @property
    def implies_reducible(self) -> bool:
        return self.parity == "even"


def parity_from_discriminant(deg_f: int, d_mod8: int) -> ParityVerdict:
    """Factor-count parity of a squarefree binary polynomial of degree
    ``deg_f`` whose lift has discriminant ``d_mod8`` mod 8.

    The parity equals deg_f mod 2 when d_mod8 = 1 and flips otherwise.  An
    even residue is rejected: the lift of a squarefree binary polynomial
    has odd discriminant, so an even value signals a non-squarefree input
    upstream.
    """
    if deg_f < 1:
        raise ValueError("degree must be at least 1")
    if d_mod8 not in (1, 3, 5, 7):
        raise ValueError(
            f"discriminant residue must be odd (in 1,3,5,7), got {d_mod8}: "
            "an even discriminant means the input was not squarefree"
        )
    t_parity = deg_f % 2 if d_mod8 == 1 else (deg_f + 1) % 2
    return ParityVerdict("odd" if t_parity else "even", "discriminant")


def trinomial_parity(n: int, k: int) -> ParityVerdict:
    """Swan's three cases for the factor-count parity of X^n + X^k + 1.

    Requires n > k > 0 with exactly one of n, k odd.  The count is even
    precisely when
      1. n even, k odd, n != 2k, and nk/2 = 0 or 1 (mod 4);
      2. n odd, k even, k does not divide 2n, and n = +-3 (mod 8);
      3. n odd, k even, k divides 2n, and n = +-1 (mod 8).
    Callers with n, k both odd should pass n, n-k instead (the reciprocal
    has the same parity); with both even the polynomial is a square.
    """
    if not n > k > 0:
        raise ValueError("require n > k > 0")
    if n % 2 == k % 2:
        raise ValueError(
            "exactly one of n, k must be odd: for both odd use the reciprocal "
            "(replace k by n-k); for both even the trinomial is a square"
        )
    if n % 2 == 0:
        even = n != 2 * k and (n * k // 2) % 4 in (0, 1)
    elif (2 * n) % k != 0:
        even = n % 8 in (3, 5)
    else:
        even = n % 8 in (1, 7)
    return ParityVerdict("even" if even else "odd", "closed_form")


def _require_closed_form_shape(shape: PentShape) -> None:
    if shape.s % 2:
        raise OutOfTheoryError(f"closed form needs even s, got s={shape.s}")
    if shape.n % 2 == 0:
        raise OutOfTheoryError(f"closed form needs odd n, got n={shape.n}")


def pent_discriminant_closed_form(shape: PentShape) -> int:
    """Discriminant mod 8 of the lift of the (n, s) pentanomial, for odd n
    and even s: 1 when n = +-1 (mod 8), else 5."""
    _require_closed_form_shape(shape)
    return 1 if shape.n % 8 in (1, 7) else 5


def pent_parity(shape: PentShape) -> ParityVerdict:
    """Factor-count parity of the (n, s) pentanomial for odd n, even s:
    odd iff n = +-1 (mod 8)."""
    _require_closed_form_shape(shape)
    odd = shape.n % 8 in (1, 7)
    return ParityVerdict("odd" if odd else "even", "closed_form")


def thm1_reducible(shape: PentShape) -> bool:
    """Certified-reducible test for even s: True when n is even (the
    pentanomial is then a perfect square) or n = +-3 (mod 8) (even factor
    count).  False means no certificate from the closed form, not
    irreducible."""
    if shape.s % 2:
        raise OutOfTheoryError(f"closed form needs even s, got s={shape.s}")
    if shape.n % 2 == 0:
        return True
    return shape.n % 8 in (3, 5)


def decimation_reducible(shape: PentShape) -> bool:
    """Certified-reducible test for odd n and even s, by decimation.

    With g = gcd(n, s) and m = n/g the pentanomial is q(X^g), where q is
    the (m, s/g) pentanomial.  For g > 1 it is reducible when some prime r
    dividing g does not divide 2^m - 1 (cf. Lidl-Niederreiter, Finite
    Fields, Thm 3.35).  Were p irreducible, with a root a, q would be
    irreducible of degree m, and X^g - b, b = a^g a root of q, irreducible
    over GF(2^m).  Yet c -> c^r permutes GF(2^m)* when r does not divide
    2^m - 1, so b = c^r for some c, and X^(g/r) - c divides X^g - b.
    Every prime of g divides N = 2^m - 1 iff g divides N^k for any k at
    least each prime's exponent in g, such as k = bit_length(g); so one
    modular power decides, with no factoring.

    Testing q as well adds nothing on the shapes that the survey keeps,
    n = +-1 (mod 8).  Theorem 1 holds on q only for m = +-3 (mod 8), and
    then g = n/m = +-3 (mod 8), so g has a prime r = +-3 (mod 8).  2 is a
    non-residue mod r (the second supplement to quadratic reciprocity), so
    the order of 2 mod r is even, does not divide the odd m, and r does not
    divide 2^m - 1: the order test fires already.  A reducible q outside
    Theorem 1 leaves p to the rank, which finds p reducible too.
    False means no certificate, not irreducible.
    """
    _require_closed_form_shape(shape)
    g = math.gcd(shape.n, shape.s)
    return g > 1 and pow(pow(2, shape.n // g, g) - 1, g.bit_length(), g) != 0


def brute_force_parity(p: BitPoly) -> ParityVerdict:
    """Observed parity from an actual factor count (``gf2poly.factor_count``:
    gcd(f, f') and Berlekamp's rank)."""
    return ParityVerdict(gf2poly.factor_count(p).parity, "brute_force")
