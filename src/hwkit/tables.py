"""Exact coefficient tables for the small-time gBM expansion functions.

Everything here is driven by g(z) = sinh(sqrt z)/sqrt z, its local
inverse h with h(1) = 0, and Q(z) = sqrt(z) coth(sqrt z).  The three
application functions are kernels of Q evaluated at h:

    rate kernel        J(z) = z/2 - sqrt(z) tanh(sqrt z / 2) = z/2 - 2Q(z) + 2Q(z/4)
    exponent kernel    F(z) = z/2 - Q(z) + pi^2/2
    prefactor kernel   G(z) = sqrt(z) / sqrt(Q(z) - 1)

No table reverts g or composes with h.  From 2z g' = g(Q - 1) and the
Riccati equation 2zQ' = Q - Q^2 + z, U = Q(h) - 1 satisfies, with
theta = x d/dx,

    theta h * U = 2h,   theta U * U = h - U - U^2

and h_1 = 6, U_1 = 2.  theta is d/dy in y = log x and (1+w) d/dw in
w = x - 1 ("omega variable").  Divided by U, with the first equation,
the second is linear:

    theta U + U = theta h / 2 - 1.

V = Q(h/4) - 1 needs no equation of its own: the doubling identity
2Q(z) - 2Q(z/4) = sqrt(z) tanh(sqrt z / 2) = Q(z) - 1/g(z) holds at z = h,
where g(h) = x, so

    V = (U - 1 + 1/x) / 2,

which is D (1 + V) = h/4 for D = U - V solved in closed form.  Order by
order the one nonlinear term is theta h * U (Brent & Kung, J. ACM 25
(1978) section 5), so _riccati takes one integer dot product per order,
O(n^2) integer products in all.  The tables are linear in h, U, V:
J(h) = h/2 - 2U + 2V, F(h) = h/2 - U + (pi^2/2 - 1), and G(h) =
sqrt(h/U) = sqrt(3) sqrt(theta h / 6), so G takes h in y one order
higher.

Variable conventions (this bites -- see coeffs_F below):

* coeffs_jbs(..., "log") tabulates J_BS(e^y) in powers of y = log x.
* coeffs_F / coeffs_G tabulate the standard printed tables, i.e. the
  coefficients c_n such that  F(rho) = (pi^2/2 - 1) + sum c_n (log rho)^n
  and G(rho) = sqrt(3) sum c_n (log rho)^n.  Equivalently they are the
  expansions of F(e^{-t}), G(e^{-t}) with the sign of t flipped; the
  natural-variable tables (used by the coefficient-asymptotics
  diagnostics) come from flip_odd_signs().

All results are cached at the largest order ever requested and sliced,
which is sound because coefficient n of a table depends only on
coefficients up to n of h, U and V (n + 1 of h for G).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from operator import mul

from .series import (DEFAULT_MAX_ORDER, OFFSET_NONE, OFFSET_PI2_HALF_MINUS_1,
                     RationalSeries, SeriesError, _append_scaled, revert_series,
                     series_compose, series_div, series_sqrt)

# perfbench/tracing.py TARGETS wraps these four names on this module, so
# they stay bound here; of them the build calls only series_sqrt.
_TRACED = (series_compose, series_div, series_sqrt, revert_series)

_cache: dict = {}
_cache_lock = threading.Lock()


def _riccati(order: int, shift: int):
    """Numerators of h, U and V to at least `order`, and their common denominator.

    shift 0 solves in y = log x, shift 1 in w = x - 1.  The series so far
    are integers over one running denominator den, and so is theta h,
    kept as a row beside them.  With b = shift (n-1), order n of
    theta h * U = 2h and order n-1 of theta U + U = theta h/2 - 1 read

        2 theta h_{n-1} + 6 U_n + s/den^2 = 2 h_n,
        n U_n + (1 + b) U_{n-1} = theta h_{n-1} / 2,

    with s = sum_{i=1}^{n-2} theta h_i U_{n-i} the one integer dot product,
    theta h_0 = 6 and U_1 = 2.  As theta h_{n-1} = n h_n + b h_{n-1},

        (2n+1) theta h_{n-1} = 6 (1 + b) U_{n-1} - 2b h_{n-1} - n s/den^2,

    and h_n and U_n follow.  V_n = (U_n + (-1)^n / f)/2, where f = n! in
    y and 1 in w: 1/x is e^-y or 1/(1+w).
    """
    nums = [0, 12], [0, 4], [0, 1], [12]   # h, U, V; theta h_0 = h_1
    nh, nu, nv, th = nums
    den, f = 2, 1                           # h_1 = 6, U_1 = 2, V_1 = 1/2
    for n in range(2, order + 1):
        b = shift * (n - 1)
        if not shift:
            f *= n
        s = sum(map(mul, th[1:], nu[n - 1:1:-1]))
        q = (2 * n + 1) * den               # theta h_{n-1} = t / (q den)
        t = 6 * (1 + b) * den * nu[n - 1] - 2 * b * den * nh[n - 1] - n * s
        u = t - 2 * (1 + b) * q * nu[n - 1]   # U_n = u / (2n q den)
        d = n * q * den
        new = (Fraction(t - b * q * nh[n - 1], d), Fraction(u, 2 * d),
               Fraction(u * f + (-1) ** n * 2 * d, 4 * d * f))
        den = _append_scaled(nums, den, new)
        th.append(n * nh[n] + b * nh[n - 1])
    return (nh, nu, nv), den


def _series(nums, den, order, offset=OFFSET_NONE) -> RationalSeries:
    return RationalSeries(tuple(Fraction(c, den) for c in nums[:order + 1]),
                          offset=offset)


def _jbs(h, u, v, den, order) -> RationalSeries:
    """The rate kernel h/2 - 2U + 2V, from numerators over den."""
    return _series([a - 4 * (b - c) for a, b, c in zip(h, u, v)], 2 * den, order)


def flip_odd_signs(a: RationalSeries) -> RationalSeries:
    """Substitute x -> -x (coefficients of odd powers change sign)."""
    return RationalSeries(tuple(c if n % 2 == 0 else -c
                                for n, c in enumerate(a.coeffs)),
                          a.prefactor_sq, a.offset)


# -- cached master tables ------------------------------------------------------

# The closed forms evaluate the kernels at h(1/rho); expanding in
# y = log rho therefore gives the kernels at h(e^{-y}), i.e. the odd-sign-
# flipped tables.  "natural" tables keep +y as the argument of h; they are
# what the coefficient asymptotics describe.  One solve in each variable
# builds every table of its group.

def _log_tables(order: int) -> dict:
    (h, u, v), den = _riccati(order + 1, 0)
    theta_h = [(m + 1) * h[m + 1] for m in range(order + 1)]
    f_nat = _series([a - 2 * b for a, b in zip(h, u)], 2 * den, order,
                    offset=OFFSET_PI2_HALF_MINUS_1)
    g_nat = series_sqrt(_series(theta_h, 2 * den, order), prefactor_sq=3)
    return {"h_log": _series(h, den, order), "jbs_log": _jbs(h, u, v, den, order),
            "F_natural": f_nat, "G_natural": g_nat,
            "F": flip_odd_signs(f_nat), "G": flip_odd_signs(g_nat)}


def _omega_tables(order: int) -> dict:
    (h, u, v), den = _riccati(order, 1)
    return {"h": _series(h, den, order), "jbs_omega": _jbs(h, u, v, den, order)}


_BUILDERS = {**dict.fromkeys(("h_log", "jbs_log", "F_natural", "G_natural", "F", "G"),
                             _log_tables),
             **dict.fromkeys(("h", "jbs_omega"), _omega_tables)}


def _table(name: str, order: int) -> RationalSeries:
    if order < 0:
        raise SeriesError("order must be nonnegative")
    if order > DEFAULT_MAX_ORDER:
        raise SeriesError(f"order {order} exceeds the cap {DEFAULT_MAX_ORDER} "
                          "(rational coefficient growth)")
    with _cache_lock:
        have = _cache.get(name)
        if have is None or have.order < order:
            for member, table in _BUILDERS[name](order).items():
                kept = _cache.get(member)
                if kept is None or kept.order < order:
                    _cache[member] = table
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
