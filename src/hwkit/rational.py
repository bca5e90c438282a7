"""Arbitrary-precision rational scalars.

All exact series work in this package runs over fractions.Fraction with
Python int numerators and denominators: always in lowest terms, with a
positive denominator, which is all the series code relies on.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Fraction is the only backend; perfbench/run.py still records this flag.
HAVE_GMPY2 = False


def rat(num, den=1) -> Fraction:
    """Build a rational from ints, strings like '144/175', or rationals.

    A Fraction with den == 1 comes back as it is: renormalizing it would
    cost one big gcd per coefficient of every series built.
    """
    if isinstance(num, str):
        return Fraction(num)
    if den == 1 and isinstance(num, Fraction):
        return num
    return Fraction(num, den)


ZERO = rat(0)
ONE = rat(1)


def rational_sqrt(q) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None
