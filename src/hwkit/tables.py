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
the second is linear, and as theta U * U = theta(U^2)/2 it also reads

    theta h = 2 (theta U + U + 1),   theta(U^2)/2 = h - U - U^2.

h is linear in U, so _riccati solves U alone, one symmetric integer dot
product (U^2) per order (Brent & Kung, J. ACM 25 (1978) section 5), and
every table follows from U and h without another product:

* J needs no Q(h/4): the doubling identity 2Q(z) - 2Q(z/4) =
  sqrt(z) tanh(sqrt z / 2) = Q(z) - 1/g(z) holds at z = h, where g(h) = x,
  so J(h) = h/2 - U - 1 + 1/x, and 1/x is e^-y or 1/(1+w).
* F(h) = h/2 - U + (pi^2/2 - 1), so in y theta F = 1 + U: F_n = U_{n-1}/n
  from n = 2, and J_n = F_n + (-1)^n/n! (one Fraction sum against the
  small n!).
* G(h) = sqrt(h/U) = sqrt(3) sqrt(theta h / 6), with G^2 = theta h / 2 =
  1 + U + theta U, so G takes U in y one order higher.

Every table is read through table(name, order); TABLES holds the six
printed names.  Variable conventions (this bites -- see coeffs_F below):

* coeffs_jbs(..., "log") tabulates J_BS(e^y) in powers of y = log x.
* coeffs_F / coeffs_G tabulate the standard printed tables, i.e. the
  coefficients c_n such that  F(rho) = (pi^2/2 - 1) + sum c_n (log rho)^n
  and G(rho) = sqrt(3) sum c_n (log rho)^n.  Equivalently they are the
  expansions of F(e^{-t}), G(e^{-t}) with the sign of t flipped; the
  natural-variable tables (used by the coefficient-asymptotics
  diagnostics) come from flip_odd_signs().

Each table has its own builder (_BUILDERS), which returns that table and
only what it gets for free: {h}, {jbs_omega}, {h_log}, {F, F_natural,
jbs_log}, {G, G_natural}.  A build never forms a table nobody asked for,
and the builders of one variable share its Riccati solve, which _cache
keeps beside the tables; so one solve in each variable serves every
table of that variable, and emptying _cache makes the next build cold.
Solves and tables are cached at the largest order ever requested and
sliced, which is sound because coefficient n of a table depends only on
coefficients up to n of h and U (n + 1 for G).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from operator import index, mul

from .rational import ZERO
from .series import (DEFAULT_MAX_ORDER, OFFSET_PI2_HALF_MINUS_1, RationalSeries,
                     SeriesError, _append_term, revert_series, series_compose,
                     series_div, series_sqrt)

# perfbench/tracing.py TARGETS wraps these four names on this module, so
# they stay bound here; of them the build calls only series_sqrt.
_TRACED = (series_compose, series_div, series_sqrt, revert_series)

_cache: dict = {}
_cache_lock = threading.Lock()


def _riccati(order: int, shift: int):
    """Numerators of k = n h_n and of U to `order`, and their common denominator.

    shift 0 solves in y = log x, shift 1 in w = x - 1.  With b = shift (n-1),
    P = U^2 and R_{n+1} = sum_{i=2}^{n-1} U_i U_{n+1-i}, so that
    P_{n+1} = 4 U_n + R_{n+1}, order n of theta(U^2)/2 = h - U - U^2 and
    order n-1 of theta h = 2 (theta U + U + 1) read

        (2n+1) U_n = (2 (1 + b) U_{n-1} - shift k_{n-1}) / n
                     - (1 + shift n/2) P_n - (n+1) R_{n+1} / 2,
        k_n = 2n U_n + 2 (1 + b) U_{n-1} - shift k_{n-1},

    from k_1 = 6 and U_1 = 2.  R_{n+1} is the one integer dot product,
    halved by symmetry; P_n is the last order's 4 U_{n-1} + R_n, and k_{n-1}
    one number (the k row follows from the U row at the end).
    """
    nu = [0, 4]
    den, p, k = 2, 16, 12                   # P_2 = U_1^2 = p / den^2
    for n in range(2, order + 1):
        b = shift * (n - 1)
        half = nu[2:(n + 2) // 2]
        r = 2 * sum(map(mul, half, reversed(nu[n - len(half):n])))
        if n % 2:
            r += nu[(n + 1) // 2] ** 2
        t = ((4 * (1 + b) * nu[n - 1] - 2 * shift * k) * den
             - n * (2 + shift * n) * p - n * (n + 1) * r)
        new = _append_term(nu, den, t, 2 * n * (2 * n + 1) * den)
        up, den = new // den, new
        p = 4 * den * nu[n] + r * up * up
        k = 2 * n * nu[n] + 2 * (1 + b) * nu[n - 1] - shift * k * up
    nk = [0, 6 * den]
    for n in range(2, order + 1):
        b = shift * (n - 1)
        nk.append(2 * n * nu[n] + 2 * (1 + b) * nu[n - 1] - shift * nk[n - 1])
    return (nk, nu), den


def _h(k, den, order) -> RationalSeries:
    return RationalSeries((ZERO, *(Fraction(k[n], n * den)
                                   for n in range(1, order + 1))))


def flip_odd_signs(a: RationalSeries) -> RationalSeries:
    """Substitute x -> -x (coefficients of odd powers change sign)."""
    return RationalSeries(tuple(c if n % 2 == 0 else -c
                                for n, c in enumerate(a.coeffs)),
                          a.prefactor_sq, a.offset)


# -- cached tables -------------------------------------------------------------

# The closed forms evaluate the kernels at h(1/rho); expanding in
# y = log rho therefore gives the kernels at h(e^{-y}), i.e. the odd-sign-
# flipped tables.  "natural" tables keep +y as the argument of h; they are
# what the coefficient asymptotics describe.  Every builder in y solves
# one order past its table, as G needs, so that all of them share one solve.

def _solve(order: int, shift: int):
    """_riccati(order, shift), cached at the largest order asked for; its
    rows may run past `order`."""
    key = ("riccati", shift)
    have = _cache.get(key)
    if have is None or len(have[0][1]) <= order:
        have = _cache[key] = _riccati(order, shift)
    return have


def _h_log(order: int) -> dict:
    (k, _), den = _solve(order + 1, 0)
    return {"h_log": _h(k, den, order)}


def _F(order: int) -> dict:
    (_, u), den = _solve(order + 1, 0)
    f_nat = [ZERO, Fraction(1)]             # F_n = U_{n-1}/n in y
    f_nat.extend(Fraction(u[n - 1], n * den) for n in range(2, order + 1))
    jbs, fact = [ZERO], 1                   # J_n = F_n + (-1)^n/n!
    for n in range(1, order + 1):
        fact *= n
        jbs.append(f_nat[n] + Fraction((-1) ** n, fact))
    f_nat = RationalSeries(tuple(f_nat), offset=OFFSET_PI2_HALF_MINUS_1)
    return {"F": flip_odd_signs(f_nat), "F_natural": f_nat,
            "jbs_log": RationalSeries(tuple(jbs))}


def _G(order: int) -> dict:
    (k, _), den = _solve(order + 1, 0)      # G^2 = theta h / 2, theta h_m = k_{m+1}
    g_sq = RationalSeries(tuple(Fraction(c, 2 * den) for c in k[1:order + 2]))
    g_nat = series_sqrt(g_sq, prefactor_sq=3)
    return {"G": flip_odd_signs(g_nat), "G_natural": g_nat}


def _h_omega(order: int) -> dict:
    (k, _), den = _solve(order, 1)
    return {"h": _h(k, den, order)}


def _jbs_omega(order: int) -> dict:
    (k, u), den = _solve(order, 1)          # J_n = h_n/2 - U_n + (-1)^n
    jbs = (Fraction(k[n] - 2 * n * (u[n] - (-1) ** n * den), 2 * n * den)
           for n in range(1, order + 1))
    return {"jbs_omega": RationalSeries((ZERO, *jbs))}


# name: (builder, lowest order); J_BS and its slope vanish at 1, so its
# tables start at order 2.  natural_table reaches the *_natural tables.
_BUILDERS = {"h": (_h_omega, 1), "h_log": (_h_log, 1),
             "jbs_omega": (_jbs_omega, 2), "jbs_log": (_F, 2),
             "F": (_F, 1), "G": (_G, 1),
             "F_natural": (_F, 1), "G_natural": (_G, 1)}
TABLES = tuple(name for name in _BUILDERS if not name.endswith("_natural"))
# coefficient family (hwkit.asympt) -> its table in the natural variable
_NATURAL = {"c": "h", "d": "h_log", "cJ": "jbs_omega", "dJ": "jbs_log",
            "dF": "F_natural", "dG": "G_natural"}


def table(name: str, order: int) -> RationalSeries:
    """The exact table `name` (one of TABLES, F_natural or G_natural) to
    `order`; SeriesError for an order that is not an integer, below the
    table's lowest order or above the cap."""
    if name not in _BUILDERS:
        raise SeriesError(f"unknown table {name!r}")
    if isinstance(order, bool) or not hasattr(order, "__index__"):
        raise SeriesError(f"order must be an integer, not {order!r}")
    order = index(order)                    # a numpy integer becomes an int
    builder, lowest = _BUILDERS[name]
    if order < lowest:
        raise SeriesError(f"order {order} too small for table {name} "
                          f"(need >= {lowest})")
    if order > DEFAULT_MAX_ORDER:
        raise SeriesError(f"order {order} exceeds the cap {DEFAULT_MAX_ORDER} "
                          "(rational coefficient growth)")
    with _cache_lock:
        have = _cache.get(name)
        if have is None or have.order < order:
            for member, built in builder(order).items():
                kept = _cache.get(member)
                if kept is None or kept.order < order:
                    _cache[member] = built
            have = _cache[name]
    return have.truncate(order)


def coeffs_h(order: int) -> RationalSeries:
    """Taylor table of the inverse of g about 1: h(w+1) = 6w - 9/5 w^2 + ..."""
    return table("h", order)


def coeffs_h_log(order: int) -> RationalSeries:
    """Table of h(e^y) in powers of y: 6y + 6/5 y^2 + ..."""
    return table("h_log", order)


def coeffs_jbs(order: int, variable: str = "log") -> RationalSeries:
    """Rate-function table: J_BS about 1 in (x-1) ('omega') or log x ('log')."""
    return table(f"jbs_{variable}", order)


def coeffs_F(order: int) -> RationalSeries:
    """Hartman-Watson exponent table: F(rho) = offset + sum c_n (log rho)^n."""
    return table("F", order)


def coeffs_G(order: int) -> RationalSeries:
    """Hartman-Watson prefactor table: G(rho) = sqrt(3) sum c_n (log rho)^n."""
    return table("G", order)


def natural_table(family: str, order: int) -> RationalSeries:
    """Tables in the variable the coefficient asymptotics are stated in.

    c: h in (omega-1); d: h(e^y); cJ/dJ: the rate function in the same two
    variables; dF/dG: exponent and prefactor kernels composed with h(e^y)
    directly (argument e^{-y} of the original functions).
    """
    if family not in _NATURAL:
        raise SeriesError(f"unknown coefficient family {family!r}")
    return table(_NATURAL[family], order)
