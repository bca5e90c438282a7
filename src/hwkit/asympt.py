"""Large-order coefficient asymptotics and their diagnostic error tables.

The dominant singularity of the inverse function h sits at
omega_1 = sin(eta_1)/eta_1 ~ -0.2172 (eta_1 the first positive root of
tan eta = eta), where h behaves like a square-root branch point:

    h(omega) = z_1 + C1 (omega - omega_1)^{1/2} + C2 (omega - omega_1) + ...

Transfer results (singularity type -> coefficient decay) then give the
leading large-n behaviour of every coefficient family produced by
tables.py.  This module computes the Puiseux constants C1, C2 and the
resulting asymptotic amplitudes, and emits the relative-error sequences
eps_n = coeff_n / asymptotic_n - 1 used to study how fast the transfer
laws kick in.

All branch-point data come in closed form from the critical-point table
(eta_1, omega_1, rho_x, theta_x from exact.critical_points).  g(z) =
sinh(sqrt z)/sqrt z solves 4 z g'' + 6 g' = g; at z_1 = -eta_1^2,
g'(z_1) = 0 and g(z_1) = omega_1 = cos(eta_1) (as tan eta_1 = eta_1), so
the Taylor data at z_1 are

    g:            (omega_1, 0, omega_1/(8 z_1), -5 omega_1/(48 z_1^2))
    cosh(sqrt z): (omega_1, omega_1/2, 0, omega_1/(48 z_1))

(cosh sqrt z = g + 2 z g').  C1 = 1/sqrt(a2) and C2 = -a3/(2 a2^2) with
a2, a3 the z_1^2 and z_1^3 coefficients of g, by reverting the
square-root-reduced expansion; the kernel derivatives at z_1 come from
the four-term quotients (cosh sqrt z - 1)/g and cosh sqrt z / g.  No
numerical differentiation or high-precision arithmetic anywhere.  The
test-suite checks C1 and C2 against a direct fit of h(omega) - z_1 -
C1 sqrt(omega - omega_1) on a shrinking real grid, and the Taylor data
against mpmath.

Conventions (documented here once, used by diagnostic_epsilon):

* families c/d are the inverse-function tables in (omega-1) resp. log
  variables; cJ/dJ the rate-function tables in the same variables.
* family dF is the exponent-kernel composite in its natural variable
  (argument e^{-y}), i.e. the printed table with odd signs flipped;
  family dG likewise, with the sqrt(3) surd multiplied in.  Those are the
  series the transfer amplitudes d_F, d_G describe.

Each family's transfer law a_n ~ A R^{-n} n^{-p} f(n) is one entry of
_LAWS, whose keys FAMILIES lists; leading_term, trig_factor,
convergence_radius, DAMPING and diagnostic_epsilon all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import exact, tables


@dataclass(frozen=True)
class PuiseuxData:
    """Branch-point data of h at its dominant singularity.

    C1 > 0 by the convention that h increases from z_1 as omega moves
    from omega_1 toward 1 along the real axis; C1^2 = -8 z_1 / l''(eta_1)
    with l(eta) = sin(eta)/eta (the second derivative taken along the
    imaginary section, where it is a real number).
    """

    z1: float
    omega1: float
    C1: float
    C2: float
    C32_J: float
    C32_F: float


@dataclass(frozen=True)
class AsymptoticConstants:
    c_inf: float
    d_inf: float
    d_J: float
    d_F: float
    d_G: float


# -- branch-point data in closed form ------------------------------------------

def _quotient(num, den):
    """The first len(num) Taylor coefficients of num/den."""
    out = []
    for k, a in enumerate(num):
        out.append((a - sum(den[i] * out[k - i] for i in range(1, k + 1)))
                   / den[0])
    return out


@lru_cache(maxsize=None)
def _branch_point():
    """(PuiseuxData, AsymptoticConstants, kernel derivatives, geometry)."""
    table = exact.critical_points(1)
    _, eta1, z1, omega1 = table.entries[0]
    rho_x = table.rho_x
    # Taylor data at z1 of g and of cosh sqrt z (see the module docstring)
    g = (omega1, 0.0, omega1 / (8 * z1), -5 * omega1 / (48 * z1 * z1))
    cosh = (omega1, omega1 / 2, 0.0, omega1 / (48 * z1))

    # local reversion about z1: omega - omega_1 = a2 u^2 + a3 u^3 + ...,
    # u = z - z1.  With s = u sqrt(a2 + a3 u + ...) = sqrt(a2) u +
    # a3/(2 sqrt(a2)) u^2 + ..., reverting gives u = C1 s + C2 s^2 + ...
    C1 = 1 / math.sqrt(g[2])
    C2 = -g[3] / (2 * g[2] ** 2)

    # rate = z/2 - (cosh sqrt z - 1)/g and exponent = z/2 - cosh sqrt z / g
    # (+ const): past the linear term their Taylor data are minus the
    # quotients'
    q_rate = _quotient((cosh[0] - 1,) + cosh[1:], g)
    q_exp = _quotient(cosh, g)
    J2, J3 = -2 * q_rate[2], -6 * q_rate[3]
    F2, F3 = -2 * q_exp[2], -6 * q_exp[3]

    C32_J = J3 * C1 ** 3 / 6 + J2 * C1 * C2
    C32_F = F3 * C1 ** 3 / 6 + F2 * C1 * C2

    w_rho = -omega1 * rho_x
    amp32 = 1.5 * math.sqrt(w_rho ** 3 / math.pi)
    pd = PuiseuxData(z1=z1, omega1=omega1, C1=C1, C2=C2,
                     C32_J=C32_J, C32_F=C32_F)
    ac = AsymptoticConstants(
        c_inf=-C1 * math.sqrt(1 - omega1) / (2 * math.sqrt(math.pi)),
        d_inf=-C1 * math.sqrt(w_rho / math.pi),
        d_J=amp32 * C32_J, d_F=amp32 * C32_F,
        d_G=2 / math.gamma(0.25) * math.sqrt(2 * eta1 ** 2 / C1)
        * w_rho ** -0.25)
    kd = {"rate_dd": J2, "rate_ddd": J3, "exp_dd": F2, "exp_ddd": F3}
    return pd, ac, kd, (omega1, rho_x, table.theta_x)


def puiseux_data() -> PuiseuxData:
    return _branch_point()[0]


def asymptotic_constants() -> AsymptoticConstants:
    return _branch_point()[1]


def kernel_derivatives_at_z1() -> dict:
    """Second/third derivatives of the rate and exponent kernels at z_1."""
    return dict(_branch_point()[2])


def _geom() -> tuple:
    """(omega_1, rho_x, theta_x)."""
    return _branch_point()[3]


# -- transfer laws ---------------------------------------------------------------

def _sign(theta_x, n):
    return (-1.0) ** n


def _wave(trig, phase):
    return lambda theta_x, n: trig(theta_x * (n + phase))


def _log_radius(omega1, rho_x):
    return rho_x


# family: (amplitude A, radius R, damping p, oscillatory factor f) of its
# transfer law a_n ~ A R^{-n} n^{-p} f(n).  A takes the AsymptoticConstants,
# R takes (omega_1, rho_x) and f takes (theta_x, n), so the constants are
# built on first use.  The log-variable families' singularities sit at
# distance rho_x; J_BS ~ 2/x has a pole at distance 1, where cJ's term is +-2.
_LAWS = {
    "c": (lambda ac: ac.c_inf, lambda omega1, rho_x: 1 - omega1, 1.5, _sign),
    "d": (lambda ac: ac.d_inf, _log_radius, 1.5, _wave(math.cos, -0.5)),
    "cJ": (lambda ac: 2.0, lambda omega1, rho_x: 1.0, 0.0, _sign),
    "dJ": (lambda ac: ac.d_J, _log_radius, 2.5, _wave(math.cos, -1.5)),
    "dF": (lambda ac: ac.d_F, _log_radius, 2.5, _wave(math.cos, -1.5)),
    "dG": (lambda ac: ac.d_G, _log_radius, 0.75, _wave(math.sin, 0.25)),
}
FAMILIES = tuple(_LAWS)
# the damping exponent p of every damped family (cJ is undamped)
DAMPING = {family: p for family, (_, _, p, _) in _LAWS.items() if p}


def _law(family: str) -> tuple:
    if family not in _LAWS:
        raise ValueError(f"unknown family {family!r}")
    return _LAWS[family]


def convergence_radius(family: str) -> float:
    """R, the radius of convergence of the family's table."""
    omega1, rho_x, _ = _geom()
    return _law(family)[1](omega1, rho_x)


def trig_factor(family: str, n: int) -> float:
    """The oscillatory factor of the leading asymptotics ((-1)^n counts)."""
    return _law(family)[3](_geom()[2], n)


def leading_term(family: str, n: int) -> float:
    """A R^{-n} n^{-p} f(n), the leading large-n value of coefficient n."""
    amplitude, _, p, _ = _law(family)
    return (amplitude(asymptotic_constants()) * convergence_radius(family) ** (-n)
            * trig_factor(family, n) * n ** -p)


def exact_family_floats(family: str, order: int):
    """Float values of the exact coefficients, the table's surd multiplied in."""
    ser = tables.natural_table(family, order)
    return [math.sqrt(ser.prefactor_sq) * c for c in ser.float_coeffs()]


def diagnostic_epsilon(family: str, order: int, n_min: int = 2):
    """Rows (n, coeff_exact, coeff_asympt, epsilon, trig_factor).

    epsilon_n = exact/asymptotic - 1; large |epsilon| at isolated n goes
    hand in hand with a small trig factor (accidental suppression of the
    leading term), so the trig factor is reported alongside.  An order
    below 2 has no rows and raises ValueError.
    """
    _law(family)
    if order < 2:
        raise ValueError(f"order {order} too small for family {family} "
                         "(need >= 2)")
    exact = exact_family_floats(family, order)
    rows = []
    for n in range(max(n_min, 1), order + 1):
        approx = leading_term(family, n)
        eps = exact[n] / approx - 1.0 if approx != 0 else math.inf
        rows.append((n, exact[n], approx, eps, trig_factor(family, n)))
    return rows


def epsilon_csv(rows) -> str:
    lines = ["n,coeff_exact,coeff_asympt,epsilon,trig_factor"]
    for n, ce, ca, eps, tf in rows:
        lines.append(f"{n},{ce!r},{ca!r},{eps!r},{tf!r}")
    return "\n".join(lines) + "\n"
