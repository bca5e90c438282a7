"""Exact coefficient tables for the small-time gBM expansion functions.

Everything here is driven by one entire function and its compositional
inverse:

    g(z) = sum_n z^n / (2n+1)!  =  sinh(sqrt z)/sqrt z

g has nonzero derivative at 0, so it admits a local inverse h with
h(1) = 0; reverting the series of g - 1 gives the Taylor table of h about
1 ("omega variable"), and composing with e^y - 1 gives the table of
h(e^y) ("log variable").  The three application functions are even-in-
sqrt(z) combinations of hyperbolics, built as plain rational series and
composed with h:

    rate kernel        J(z) = z/2 - sqrt(z) tanh(sqrt z / 2)
    exponent kernel    F(z) = z/2 - sqrt(z)/tanh(sqrt z) + pi^2/2
    prefactor kernel   G(z) = sqrt(z) / sqrt(sqrt(z)/tanh(sqrt z) - 1)

Q(z) = sqrt(z) coth(sqrt z) is obtained by dividing the cosh-in-sqrt(z)
and sinh-in-sqrt(z) even series rather than via Bernoulli numbers; all
three kernels are read off Q, the rate kernel through
sqrt(z) tanh(sqrt z/2) = 2Q(z) - 2Q(z/4).

Variable conventions (this bites -- see coeffs_F below):

* coeffs_jbs(..., "log") tabulates J_BS(e^y) in powers of y = log x.
* coeffs_F / coeffs_G tabulate the standard printed tables, i.e. the
  coefficients c_n such that  F(rho) = (pi^2/2 - 1) + sum c_n (log rho)^n
  and G(rho) = sqrt(3) sum c_n (log rho)^n.  Equivalently they are the
  expansions of F(e^{-t}), G(e^{-t}) with the sign of t flipped; the
  natural-variable tables (used by the coefficient-asymptotics
  diagnostics) come from flip_odd_signs().

All results are cached at the largest order ever requested and sliced,
which is sound because truncated-series operations never let higher-order
input coefficients contaminate lower-order output ones.
"""

from __future__ import annotations

import threading
from math import factorial

from .rational import rat, ZERO, ONE
from .series import (DEFAULT_MAX_ORDER, OFFSET_PI2_HALF_MINUS_1, RationalSeries,
                     SeriesError, revert_series, series_compose, series_div,
                     series_shift_down, series_sqrt)

_cache: dict = {}
_cache_lock = threading.RLock()  # _build recurses into _table for sub-tables


def sinhc_series(order: int) -> RationalSeries:
    """g(z) = sinh(sqrt z)/sqrt z = sum z^n/(2n+1)!."""
    return RationalSeries(tuple(rat(1, factorial(2 * n + 1)) for n in range(order + 1)))


def cosh_sqrt_series(order: int) -> RationalSeries:
    """cosh(sqrt z) = sum z^n/(2n)!."""
    return RationalSeries(tuple(rat(1, factorial(2 * n)) for n in range(order + 1)))


def expm1_series(order: int) -> RationalSeries:
    return RationalSeries(tuple(rat(1, factorial(n)) if n else ZERO
                                for n in range(order + 1)))


def rate_kernel_series(order: int) -> RationalSeries:
    """z/2 - sqrt(z) tanh(sqrt z/2) as a plain series in z."""
    return _rate_kernel(sqrt_coth_series(order))


def sqrt_coth_series(order: int) -> RationalSeries:
    """sqrt(z) coth(sqrt z) = cosh(sqrt z)/g(z) as a plain series in z."""
    return series_div(cosh_sqrt_series(order), sinhc_series(order))


def _exponent_kernel(q: RationalSeries) -> RationalSeries:
    coeffs = [-c for c in q.coeffs]
    coeffs[0] += 1
    coeffs[1] += rat(1, 2)
    return RationalSeries(tuple(coeffs), offset=OFFSET_PI2_HALF_MINUS_1)


def _rate_kernel(q: RationalSeries) -> RationalSeries:
    # sqrt(z) tanh(sqrt z/2) = 2Q(z) - 2Q(z/4), Q(z) = sqrt(z)coth(sqrt z)
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


def exponent_kernel_series(order: int) -> RationalSeries:
    """z/2 - sqrt(z)/tanh(sqrt z) + pi^2/2, split as series + symbolic offset.

    The returned rational part has zero constant term; the transcendental
    constant pi^2/2 - 1 rides on the offset flag so downstream tables can
    be compared exactly.
    """
    return _exponent_kernel(sqrt_coth_series(order))


def prefactor_kernel_series(order: int) -> RationalSeries:
    """sqrt(z)/sqrt(sqrt(z)coth(sqrt z) - 1) as sqrt(3) * rational series.

    Writing the argument as (z/3)*T(z) with T(0) = 1 splits off the surd:
    the result is sqrt(3)/sqrt(T), held as a RationalSeries with
    prefactor_sq = 3.  The quotient shifts a series down by one power of
    z, so sqrt(z)coth(sqrt z) is built one order higher.
    """
    return _prefactor_kernel(sqrt_coth_series(order + 1))


def flip_odd_signs(a: RationalSeries) -> RationalSeries:
    """Substitute x -> -x (coefficients of odd powers change sign)."""
    return RationalSeries(tuple(c if n % 2 == 0 else -c
                                for n, c in enumerate(a.coeffs)),
                          a.prefactor_sq, a.offset)


# -- cached master tables ------------------------------------------------------

# The closed forms evaluate the kernels at h(1/rho); expanding in
# y = log rho therefore composes with h(e^{-y}), i.e. with the odd-sign-
# flipped log table.  "natural" tables keep +y as the argument of h; they
# are what the coefficient asymptotics describe.  The three tables composed
# with h(e^y) are built together: one composition pass over the powers of
# h(e^y), and one sqrt(z)coth(sqrt z) for all three kernels.
_H_LOG_GROUP = ("jbs_log", "F_natural", "G_natural")


def _build_h_log_group(order: int) -> dict:
    q = sqrt_coth_series(order + 1)
    q_n = q.truncate(order)
    kernels = (_rate_kernel(q_n), _exponent_kernel(q_n), _prefactor_kernel(q))
    return dict(zip(_H_LOG_GROUP, series_compose(kernels, _table("h_log", order))))


def _build(name: str, order: int) -> RationalSeries:
    if name == "h":
        return revert_series(sinhc_series(order))
    if name == "h_log":
        return series_compose(_table("h", order), expm1_series(order))
    if name == "jbs_omega":
        return series_compose(rate_kernel_series(order), _table("h", order))
    if name == "F":
        return flip_odd_signs(_table("F_natural", order))
    if name == "G":
        return flip_odd_signs(_table("G_natural", order))
    raise KeyError(name)


def _table(name: str, order: int) -> RationalSeries:
    if order < 0:
        raise SeriesError("order must be nonnegative")
    if order > DEFAULT_MAX_ORDER:
        raise SeriesError(f"order {order} exceeds the cap {DEFAULT_MAX_ORDER} "
                          "(rational coefficient growth)")
    with _cache_lock:
        have = _cache.get(name)
        if have is None or have.order < order:
            if name in _H_LOG_GROUP:
                for member, table in _build_h_log_group(order).items():
                    kept = _cache.get(member)
                    if kept is None or kept.order < order:
                        _cache[member] = table
            else:
                _cache[name] = _build(name, order)
            have = _cache[name]
    return have.truncate(order)


def coeffs_h(order: int) -> RationalSeries:
    """Taylor table of the inverse of g about 1: h(w+1) = 6w - 9/5 w^2 + ..."""
    if order < 1:
        raise SeriesError("coeffs_h needs order >= 1")
    return _table("h", order)


def coeffs_h_log(order: int) -> RationalSeries:
    """Table of h(e^y) in powers of y: 6y + 6/5 y^2 + ..."""
    if order < 1:
        raise SeriesError("coeffs_h_log needs order >= 1")
    return _table("h_log", order)


def coeffs_jbs(order: int, variable: str = "log") -> RationalSeries:
    """Rate-function table: J_BS about 1 in (x-1) ('omega') or log x ('log')."""
    if order < 2:
        raise SeriesError("coeffs_jbs needs order >= 2")
    if variable not in ("omega", "log"):
        raise SeriesError("variable must be 'omega' or 'log'")
    return _table("jbs_omega" if variable == "omega" else "jbs_log", order)


def coeffs_F(order: int) -> RationalSeries:
    """Hartman-Watson exponent table: F(rho) = offset + sum c_n (log rho)^n."""
    if order < 1:
        raise SeriesError("coeffs_F needs order >= 1")
    return _table("F", order)


def coeffs_G(order: int) -> RationalSeries:
    """Hartman-Watson prefactor table: G(rho) = sqrt(3) sum c_n (log rho)^n."""
    if order < 1:
        raise SeriesError("coeffs_G needs order >= 1")
    return _table("G", order)


def natural_table(family: str, order: int) -> RationalSeries:
    """Tables in the variable the coefficient asymptotics are stated in.

    c: h in (omega-1); d: h(e^y); cJ/dJ: the rate function in the same two
    variables; dF/dG: exponent and prefactor kernels composed with h(e^y)
    directly (argument e^{-y} of the original functions).
    """
    names = {"c": "h", "d": "h_log", "cJ": "jbs_omega", "dJ": "jbs_log",
             "dF": "F_natural", "dG": "G_natural"}
    if family not in names:
        raise SeriesError(f"unknown coefficient family {family!r}")
    return _table(names[family], order)
