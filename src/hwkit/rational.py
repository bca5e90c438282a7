"""Arbitrary-precision rational scalars.

All exact series work in this package runs over rationals.  gmpy2's mpq is
used when available (it is dramatically faster for the thousand-digit
numerators that show up at order ~100); plain fractions.Fraction is a
drop-in fallback.  Both expose .numerator/.denominator and normalize to
lowest terms with positive denominator, which is all the series code
relies on.
"""

from __future__ import annotations

from fractions import Fraction

try:
    import gmpy2
    from gmpy2 import mpq as Rational, mpz as Integer

    HAVE_GMPY2 = True

    def _gcd(a, b):
        return gmpy2.gcd(a, b)

    def _lcm(a, b):
        return gmpy2.lcm(a, b)

    def _isqrt(n):
        return gmpy2.isqrt(n)

except ImportError:  # pragma: no cover - exercised only without gmpy2
    import math

    Rational = Fraction
    Integer = int
    HAVE_GMPY2 = False

    def _gcd(a, b):
        return math.gcd(int(a), int(b))

    def _lcm(a, b):
        return math.lcm(int(a), int(b))

    def _isqrt(n):
        return math.isqrt(int(n))


def rat(num, den=1) -> Rational:
    """Build a rational from ints, strings like '144/175', or rationals.

    A Rational with den == 1 comes back as it is: renormalizing it would
    cost one big gcd per coefficient of every series built.
    """
    if isinstance(num, str):
        return Rational(num)
    if den == 1 and isinstance(num, Rational):
        return num
    return Rational(num, den)


ZERO = rat(0)
ONE = rat(1)


def rational_sqrt(q) -> Rational | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = _isqrt(n), _isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Rational(rn, rd)
    return None
