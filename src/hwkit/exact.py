"""Closed forms of F, G, J_BS and the minimizer of I(a, .); critical points.

These are the ground-truth oracles for the series evaluators.  Each value
costs one transcendental root solve (hwkit.roots):

    J_BS(x) = xi^2/2 - xi tanh(xi/2)          sinh(xi)/xi = x     (x > 1)
            = (pi-lambda) cot(lambda/2) - (pi-lambda)^2/2   rho = 1/x  (x < 1)

    F(rho)  = kappa^2/2 - kappa/tanh(kappa) + pi^2/2    (rho < 1)
            = -lambda^2/2 + (pi-lambda)/tan(lambda) + pi lambda  (rho > 1)

    G(rho)  = rho sinh(kappa)/sqrt(rho cosh(kappa) - 1) (rho < 1)
            = rho sin(lambda)/sqrt(1 + rho cos(lambda)) (rho > 1)

with kappa solving rho sinh(kappa)/kappa = 1 and lambda in (0, pi) solving
lambda + rho sin(lambda) = pi.  The formulas degenerate at the expansion
point rho = x = 1 (0/0 in kappa/tanh kappa, and J_BS ~ xi^4/24 is a
difference of terms of size xi^2/2), so inside |log rho| < SERIES_GUARD
each target is its exact order-24 Taylor table (truncation error there
under 1e-47); outside, the sweep against 40-digit mpmath holds 1e-13.
The three share one dispatch and take a float or an array (a float back
for a scalar).  `target_table` maps a target name to its float table,
offset and prefactor; hwkit.evaluate reads it too.  Arguments that are
not positive and finite raise ValueError, and so does J_BS at x <= 2/DBL_MAX,
where its value ~ 2/x overflows a double.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tables
from .roots import solve_kappa, solve_lambda, solve_tan_eta, solve_xi, solve_zeta
from .series import OFFSET_NONE, OFFSET_PI2_HALF_MINUS_1

PI2_HALF = math.pi * math.pi / 2.0

# |log rho| below which closed forms are replaced by the local series.
SERIES_GUARD = 0.05
_GUARD_ORDER = 24

# the tables.table name of each target's exact Taylor table in y = log(rho)
_TABLES = {"F": "F", "G": "G", "JBS": "jbs_log"}
TARGETS = tuple(_TABLES)
# J_BS(x) ~ 2/x overflows a double at and below this x
_JBS_X_MIN = 2.0 / sys.float_info.max
_OFFSET_VALUES = {OFFSET_NONE: 0.0, OFFSET_PI2_HALF_MINUS_1: PI2_HALF - 1.0}


@lru_cache(maxsize=None)
def target_table(name: str, order: int) -> tuple:
    """(float coeffs, offset, prefactor) of target `name` at `order`.

    The target is prefactor * sum coeffs[n] (log rho)^n + offset near
    rho = 1; offset and prefactor are the float values of the table's
    symbolic `offset` and `sqrt(prefactor_sq)`.  An order below the
    table's lowest (2 for J_BS, 1 otherwise) raises SeriesError.
    """
    ser = tables.table(_TABLES[name], order)
    return (tuple(ser.float_coeffs()), _OFFSET_VALUES[ser.offset],
            math.sqrt(float(ser.prefactor_sq)))


def series_value(coeffs, offset: float, prefactor: float, y):
    """prefactor * sum coeffs[n] y^n + offset for a float or a numpy array y."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return prefactor * acc + offset


def _dispatch(name: str, x, below, above, x_min=0.0):
    """Target `name` at x: its guard series where |log x| < SERIES_GUARD,
    and off it, with (solve, formula) = below under 1 and above over 1,
    formula(solve(x)).  x at or below x_min, where the value leaves the
    double range, raises ValueError before any solve."""
    x = np.asarray(x, dtype=float)
    if not ((0.0 < x) & (x < np.inf)).all():
        raise ValueError(f"{name}_exact needs positive finite arguments")
    if (x <= x_min).any():
        raise ValueError(f"{name}_exact needs x > {x_min!r}: its value "
                         "overflows a double at and below that bound")
    y = np.log(x)
    near = np.abs(y) < SERIES_GUARD
    out = np.empty(x.shape)
    if near.any():
        out[near] = series_value(*target_table(name, _GUARD_ORDER), y[near])
    for part, (solve, formula) in ((~near & (y < 0.0), below),
                                   (~near & (y > 0.0), above)):
        if part.any():
            out[part] = formula(solve(x[part]))
    return out if out.ndim else float(out)


def JBS_exact(x):
    """Small-maturity decay rate of the time-averaged gBM density at x."""
    return _dispatch(
        "JBS", x,
        (lambda x: solve_lambda(1.0 / x),
         lambda lam: (np.pi - lam) / np.tan(0.5 * lam) - 0.5 * (np.pi - lam) ** 2),
        (solve_xi, lambda xi: 0.5 * xi * xi - xi * np.tanh(0.5 * xi)),
        x_min=_JBS_X_MIN)


def F_exact(rho):
    """Exponent function of the small-time Hartman-Watson expansion."""
    return _dispatch(
        "F", rho,
        (solve_kappa, lambda kappa: 0.5 * kappa * kappa - kappa / np.tanh(kappa)
         + PI2_HALF),
        (solve_lambda, lambda lam: -0.5 * lam * lam + (np.pi - lam) / np.tan(lam)
         + np.pi * lam))


def G_exact(rho):
    """Prefactor function of the small-time Hartman-Watson expansion.

    At the roots rho sinh(kappa) = kappa and rho sin(lambda) = pi - lambda,
    so rho cosh(kappa) is kappa/tanh(kappa) and rho cos(lambda) is
    (pi - lambda)/tan(lambda); in these forms no rho overflows.
    """
    return _dispatch(
        "G", rho,
        (solve_kappa, lambda kappa: kappa / np.sqrt(kappa / np.tanh(kappa) - 1.0)),
        (solve_lambda, lambda lam: (np.pi - lam)
         / np.sqrt(1.0 + (np.pi - lam) / np.tan(lam))))


def rate_argmin(a: float) -> float:
    """argmin_v I(a, v), one root solve (see pricing.rate_J_with_argmin)."""
    if a >= 1.0:
        s = 0.5 * solve_xi(a)
        return a * s / math.sinh(s) if s else a
    s = 0.5 * solve_zeta(a)
    return a * s / math.sin(s) if s else a


@dataclass(frozen=True)
class CriticalPointTable:
    """Roots of tan(eta) = eta and the derived dominant-singularity data.

    entries[k-1] = (k, eta_k, z_k = -eta_k^2, omega_k = sin(eta_k)/eta_k).
    rho_x/theta_x are modulus and argument of i pi + log|omega_1|, the
    nearest singularities of the log-variable expansions.
    """

    entries: tuple
    rho_x: float
    theta_x: float

    @property
    def eta(self):
        return [e[1] for e in self.entries]

    @property
    def z(self):
        return [e[2] for e in self.entries]

    @property
    def omega(self):
        return [e[3] for e in self.entries]


def critical_points(count: int = 5) -> CriticalPointTable:
    if count < 1:
        raise ValueError("count must be >= 1")
    etas = solve_tan_eta(np.arange(1, count + 1)).tolist()
    entries = [(k, eta, -eta * eta, math.sin(eta) / eta)
               for k, eta in enumerate(etas, start=1)]
    omega1 = entries[0][3]
    log_w1 = math.log(abs(omega1))
    rho_x = math.hypot(log_w1, math.pi)
    theta_x = math.atan2(math.pi, log_w1)
    return CriticalPointTable(tuple(entries), rho_x, theta_x)


def singularity_distance(k: int, table: CriticalPointTable) -> float:
    """Log-plane distance of the nearest point with e^y = omega_k.

    For omega_k > 0 the nearest preimage is real (|log omega_k|); for
    omega_k < 0 it carries the i pi offset, giving |log|omega_k| + i pi|.
    """
    omega_k = table.entries[k - 1][3]
    if omega_k > 0:
        return abs(math.log(omega_k))
    return math.hypot(math.log(abs(omega_k)), math.pi)
