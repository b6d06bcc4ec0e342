"""Reducibility and factor-count parity of sparse binary polynomials.

The centerpiece is the equally gapped pentanomial family
X^n + X^(n-s) + X^(n-2s) + X^(n-3s) + 1 over GF(2): closed-form parity
predicates via the discriminant of the integer lift mod 8, exact oracles
(resultants, Newton power sums, brute-force factor counting) to check them
against, and an exhaustive search harness with statistics.
"""

__version__ = "0.1.0"

from .gf2poly import (
    BitPoly,
    FactorCount,
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
from .swan import (
    OutOfTheoryError,
    ParityVerdict,
    brute_force_parity,
    parity_from_discriminant,
    pent_discriminant_closed_form,
    pent_parity,
    thm1_reducible,
    trinomial_parity,
)
from .zpoly import (
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
from .search import (
    SearchRecord,
    classify_shape,
    enumerate_shapes,
    stats,
    survey,
)

__all__ = [name for name in dir() if not name.startswith("_")]
