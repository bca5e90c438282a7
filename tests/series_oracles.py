"""Closed-form series and a reference solve, kept as oracles for the exact tables.

hwkit.tables builds its tables from the Riccati recurrences that h and
Q(h) satisfy, with U = Q(h) - 1 from a linear recurrence and
V = Q(h/4) - 1 = (U - 1 + 1/x)/2 in closed form.  The series here come
from the definitions instead:
plain rational series of the hyperbolics, divided with the series
algebra of hwkit.series.  Tests compose them with the tables and compare
coefficient by coefficient.

    g(z)               = sinh(sqrt z)/sqrt z = sum z^n/(2n+1)!
    Q(z)               = sqrt(z) coth(sqrt z) = cosh(sqrt z)/g(z)
    rate kernel        J(z) = z/2 - sqrt(z) tanh(sqrt z / 2) = z/2 - 2Q(z) + 2Q(z/4)
    exponent kernel    F(z) = z/2 - Q(z) + pi^2/2
    prefactor kernel   G(z) = sqrt(z) / sqrt(Q(z) - 1)

riccati_three_equations is an earlier solve of the tables: all three
Riccati equations, V's included, order by order with theta applied to
each row, four dot products per order, each order's three new terms
appended as Fractions with one lcm (_append_scaled), independently of
the one-gcd append of hwkit.series.  Tests compare the solve in
hwkit.tables with it at the order cap, and every table with
tables_from_three_equations, which forms them from its rows by the
formulas linear in h, U and V.
"""

from fractions import Fraction
from math import factorial, lcm
from operator import add, mul

from hwkit.rational import ONE, ZERO, rat
from hwkit.series import (OFFSET_PI2_HALF_MINUS_1, RationalSeries, SeriesError,
                          series_div, series_sqrt)


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


def series_shift_down(a: RationalSeries, k: int = 1) -> RationalSeries:
    """Divide by x^k; the dropped low coefficients must vanish."""
    if any(c != 0 for c in a.coeffs[:k]):
        raise SeriesError("series is not divisible by x^k")
    return RationalSeries(a.coeffs[k:], a.prefactor_sq, a.offset)


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


def _theta(nums, n, shift):
    """theta a at orders 1 .. n-1, as numerators, with the unknown a_n as 0."""
    t = [(i + 1) * nums[i + 1] for i in range(1, n - 1)]
    t.append(0)
    if shift:
        t = [c + i * a for i, (c, a) in enumerate(zip(t, nums[1:n]), 1)]
    return t


def _append_scaled(rows, den, qs):
    """Append each rational qs[i] to the integer vector rows[i], in place.

    Every row is held over the one common denominator den.  Returns the
    new one: when some q's denominator does not divide den, every row is
    rescaled once by lcm // den, also the rows past len(qs), which get
    nothing appended.
    """
    new = lcm(den, *(q.denominator for q in qs))
    if new != den:
        up = new // den
        for nums in rows:
            nums[:] = [c * up for c in nums]
        den = new
    for nums, q in zip(rows, qs):
        nums.append(q.numerator * (den // q.denominator))
    return den


def riccati_three_equations(order: int, shift: int):
    """Numerators of h, U and V to `order`, and their common denominator.

    Solves, with theta = d/dy (shift 0) or (1+w) d/dw (shift 1),

        theta h * U = 2h,   theta U * U = h - U - U^2,   theta V * U = h/4 - V - V^2

    from h_1 = 6, U_1 = 2, V_1 = 1/2.  The series are integers over one
    running denominator D, and at order n the known part of each equation
    is one integer dot product (0 < i < n, a_n as 0):

        s1 = sum theta h_i U_{n-i},   s2 = sum (theta U_i + U_i) U_{n-i},
        s3 = sum theta V_i U_{n-i} + V_i V_{n-i}

    and the unknowns follow with one rational each:

        (2n-2) h_n + 6 U_n = -s1/D^2,   -h_n + (2n+3) U_n = -s2/D^2,
        (2n+1) V_n = h_n/4 - U_n/2 - s3/D^2.
    """
    nums = [0, 12], [0, 4], [0, 1]          # h_1 = 6, U_1 = 2, V_1 = 1/2
    den = 2
    for n in range(2, order + 1):
        nh, nu, nv = nums
        ru = nu[n - 1:0:-1]
        s1 = sum(map(mul, _theta(nh, n, shift), ru))
        s2 = sum(map(mul, map(add, _theta(nu, n, shift), nu[1:n]), ru))
        s3 = (sum(map(mul, _theta(nv, n, shift), ru))
              + sum(map(mul, nv[1:n], nv[n - 1:0:-1])))
        d = 2 * n * (2 * n + 1) * den * den
        new = (Fraction(6 * s2 - (2 * n + 3) * s1, d),
               Fraction(-s1 - (2 * n - 2) * s2, d),
               Fraction(2 * s2 - s1 - 8 * n * s3, 4 * d))
        den = _append_scaled(nums, den, new)
    return nums, den


def _flip(a: RationalSeries) -> RationalSeries:
    return RationalSeries(tuple((-1) ** n * c for n, c in enumerate(a.coeffs)),
                          a.prefactor_sq, a.offset)


def tables_from_three_equations(order: int) -> dict:
    """Every table of hwkit.tables at `order`, keyed by its cache name.

    From riccati_three_equations' h, U and V: J = h/2 - 2U + 2V,
    F = h/2 - U (offset pi^2/2 - 1) and G = sqrt(3) sqrt(theta h / 6), with
    theta h in y one order higher; F and G flip the natural tables' odd
    signs.
    """
    out = {}
    for shift, h_name, j_name in ((1, "h", "jbs_omega"), (0, "h_log", "jbs_log")):
        rows, den = riccati_three_equations(order + 1, shift)
        h, u, v = ([Fraction(c, den) for c in row] for row in rows)
        out[h_name] = RationalSeries(tuple(h[:order + 1]))
        out[j_name] = RationalSeries(tuple(a / 2 - 2 * b + 2 * c for a, b, c
                                           in zip(h[:order + 1], u, v)))
    # h and u are the rows in y from here on
    f_nat = RationalSeries(tuple(a / 2 - b for a, b in zip(h[:order + 1], u)),
                           offset=OFFSET_PI2_HALF_MINUS_1)
    root = series_sqrt(RationalSeries(tuple(m * h[m] / 6 for m in range(1, order + 2))))
    g_nat = RationalSeries(root.coeffs, prefactor_sq=3)
    return {**out, "F_natural": f_nat, "G_natural": g_nat,
            "F": _flip(f_nat), "G": _flip(g_nat)}
