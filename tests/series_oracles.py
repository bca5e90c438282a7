"""Closed-form series and kernels, kept as oracles for the exact tables.

hwkit.tables builds its tables from the Riccati recurrences that h, Q(h)
and Q(h/4) satisfy.  The series here come from the definitions instead:
plain rational series of the hyperbolics, divided with the series
algebra of hwkit.series.  Tests compose them with the tables and compare
coefficient by coefficient.

    g(z)               = sinh(sqrt z)/sqrt z = sum z^n/(2n+1)!
    Q(z)               = sqrt(z) coth(sqrt z) = cosh(sqrt z)/g(z)
    rate kernel        J(z) = z/2 - sqrt(z) tanh(sqrt z / 2) = z/2 - 2Q(z) + 2Q(z/4)
    exponent kernel    F(z) = z/2 - Q(z) + pi^2/2
    prefactor kernel   G(z) = sqrt(z) / sqrt(Q(z) - 1)
"""

from math import factorial

from hwkit.rational import ONE, ZERO, rat
from hwkit.series import (OFFSET_PI2_HALF_MINUS_1, RationalSeries, series_div,
                          series_shift_down, series_sqrt)


def sinhc_series(order: int) -> RationalSeries:
    """g(z) = sinh(sqrt z)/sqrt z = sum z^n/(2n+1)!."""
    return RationalSeries(tuple(rat(1, factorial(2 * n + 1)) for n in range(order + 1)))


def cosh_sqrt_series(order: int) -> RationalSeries:
    """cosh(sqrt z) = sum z^n/(2n)!."""
    return RationalSeries(tuple(rat(1, factorial(2 * n)) for n in range(order + 1)))


def expm1_series(order: int) -> RationalSeries:
    return RationalSeries(tuple(rat(1, factorial(n)) if n else ZERO
                                for n in range(order + 1)))


def sqrt_coth_series(order: int) -> RationalSeries:
    """sqrt(z) coth(sqrt z) = cosh(sqrt z)/g(z) as a plain series in z."""
    return series_div(cosh_sqrt_series(order), sinhc_series(order))


def _exponent_kernel(q: RationalSeries) -> RationalSeries:
    coeffs = [-c for c in q.coeffs]
    coeffs[0] += 1
    coeffs[1] += rat(1, 2)
    return RationalSeries(tuple(coeffs), offset=OFFSET_PI2_HALF_MINUS_1)


def _rate_kernel(q: RationalSeries) -> RationalSeries:
    coeffs = [2 * c / 4 ** n - 2 * c for n, c in enumerate(q.coeffs)]
    coeffs[1] += rat(1, 2)
    return RationalSeries(tuple(coeffs))


def _prefactor_kernel(q: RationalSeries) -> RationalSeries:
    order = q.order - 1
    w = list(q.coeffs)
    w[0] -= 1                                   # sqrt(z)coth(sqrt z) - 1
    t = series_shift_down(RationalSeries(tuple(3 * c for c in w)))  # 3W/z
    root = series_sqrt(t.truncate(order))
    inv = series_div(RationalSeries((ONE,) + (ZERO,) * order), root)
    return RationalSeries(inv.coeffs, prefactor_sq=3)


def rate_kernel_series(order: int) -> RationalSeries:
    """z/2 - sqrt(z) tanh(sqrt z/2) as a plain series in z."""
    return _rate_kernel(sqrt_coth_series(order))


def exponent_kernel_series(order: int) -> RationalSeries:
    """z/2 - sqrt(z)/tanh(sqrt z) + pi^2/2: the rational part has zero
    constant term, and pi^2/2 - 1 rides on the offset flag."""
    return _exponent_kernel(sqrt_coth_series(order))


def prefactor_kernel_series(order: int) -> RationalSeries:
    """sqrt(z)/sqrt(sqrt(z)coth(sqrt z) - 1) as sqrt(3) * rational series.

    Writing the argument as (z/3)*T(z) with T(0) = 1 splits off the surd:
    the result is sqrt(3)/sqrt(T), with prefactor_sq = 3.  The quotient
    shifts a series down by one power of z, so sqrt(z)coth(sqrt z) is
    built one order higher.
    """
    return _prefactor_kernel(sqrt_coth_series(order + 1))
