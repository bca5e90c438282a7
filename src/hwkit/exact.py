"""Closed-form evaluation of F, G and J_BS, plus the critical-point table.

These are the ground-truth oracles for the series evaluators.  Each value
costs one transcendental root solve:

    J_BS(x) = xi^2/2 - xi tanh(xi/2)          sinh(xi)/xi  = x   (x >= 1)
            = zeta tan(zeta/2) - zeta^2/2     sin(zeta)/zeta = x (x <= 1)

    F(rho)  = kappa^2/2 - kappa/tanh(kappa) + pi^2/2    (rho < 1)
            = -lambda^2/2 + (pi-lambda)/tan(lambda) + pi lambda  (rho > 1)

    G(rho)  = rho sinh(kappa)/sqrt(rho cosh(kappa) - 1) (rho < 1)
            = rho sin(lambda)/sqrt(1 + rho cos(lambda)) (rho > 1)

with kappa solving rho sinh(kappa)/kappa = 1 and lambda in (0, pi) solving
lambda + rho sin(lambda) = pi.  All three functions are smooth across the
expansion point rho = x = 1 but the formulas degenerate there (0/0 in
kappa/tanh kappa, (pi-lambda)/tan lambda), so inside |log rho| < 1e-3 the
evaluation switches to the exact Taylor tables, which are error-free at
the expansion point and agree with the closed forms to ~1e-12 across the
overlap.  `target_table` is the one map from a target name to its float
table, offset and prefactor; the evaluators in hwkit.evaluate read it
too.  Arguments that are not positive and finite raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import tables
from .roots import solve_kappa, solve_lambda, solve_tan_eta, solve_xi, solve_zeta
from .series import OFFSET_NONE, OFFSET_PI2_HALF_MINUS_1

PI2_HALF = math.pi * math.pi / 2.0

# |log rho| below which closed forms are replaced by the local series.
SERIES_GUARD = 1e-3
_GUARD_ORDER = 24

# exact Taylor table of each target in y = log(rho), looked up at call time
_TABLES = {
    "F": lambda order: tables.coeffs_F(order),
    "G": lambda order: tables.coeffs_G(order),
    "JBS": lambda order: tables.coeffs_jbs(max(order, 2), "log"),
}
TARGETS = tuple(_TABLES)
_OFFSET_VALUES = {OFFSET_NONE: 0.0, OFFSET_PI2_HALF_MINUS_1: PI2_HALF - 1.0}


@lru_cache(maxsize=None)
def target_table(name: str, order: int) -> tuple:
    """(float coeffs, offset, prefactor) of target `name` at `order`.

    The target is prefactor * sum coeffs[n] (log rho)^n + offset near
    rho = 1; offset and prefactor are the float values of the table's
    symbolic `offset` and `sqrt(prefactor_sq)`.  J_BS starts at order 2.
    """
    ser = _TABLES[name](order)
    return (tuple(ser.float_coeffs()), _OFFSET_VALUES[ser.offset],
            math.sqrt(float(ser.prefactor_sq)))


def series_value(coeffs, offset: float, prefactor: float, y):
    """prefactor * sum coeffs[n] y^n + offset for a float or a numpy array y."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return prefactor * acc + offset


def _checked_log(name: str, x: float) -> float:
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} needs a positive finite argument, got {x!r}")
    return math.log(x)


def JBS_exact(x: float) -> float:
    """Small-maturity decay rate of the time-averaged gBM density at x."""
    y = _checked_log("JBS_exact", x)
    if abs(y) < SERIES_GUARD:
        return series_value(*target_table("JBS", _GUARD_ORDER), y)
    if x >= 1.0:
        xi = solve_xi(x)
        return 0.5 * xi * xi - xi * math.tanh(0.5 * xi)
    zeta = solve_zeta(x)
    return zeta * math.tan(0.5 * zeta) - 0.5 * zeta * zeta


def F_exact(rho: float) -> float:
    """Exponent function of the small-time Hartman-Watson expansion."""
    y = _checked_log("F_exact", rho)
    if abs(y) < SERIES_GUARD:
        return series_value(*target_table("F", _GUARD_ORDER), y)
    if rho < 1.0:
        kappa = solve_kappa(rho)
        return 0.5 * kappa * kappa - kappa / math.tanh(kappa) + PI2_HALF
    lam = solve_lambda(rho)
    return -0.5 * lam * lam + (math.pi - lam) / math.tan(lam) + math.pi * lam


def G_exact(rho: float) -> float:
    """Prefactor function of the small-time Hartman-Watson expansion."""
    y = _checked_log("G_exact", rho)
    if abs(y) < SERIES_GUARD:
        return series_value(*target_table("G", _GUARD_ORDER), y)
    if rho < 1.0:
        kappa = solve_kappa(rho)
        # At the root rho sinh(kappa) = kappa, so rho cosh(kappa) equals
        # kappa/tanh(kappa); this form never overflows at tiny rho.
        return kappa / math.sqrt(kappa / math.tanh(kappa) - 1.0)
    lam = solve_lambda(rho)
    return rho * math.sin(lam) / math.sqrt(1.0 + rho * math.cos(lam))


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
    entries = []
    for k in range(1, count + 1):
        eta = solve_tan_eta(k)
        entries.append((k, eta, -eta * eta, math.sin(eta) / eta))
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
