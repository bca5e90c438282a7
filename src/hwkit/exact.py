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
overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tables
from .roots import (DEFAULT_CONFIG, RootSolverConfig, solve_kappa, solve_lambda,
                    solve_tan_eta, solve_xi, solve_zeta)

PI2_HALF = math.pi * math.pi / 2.0

# |log rho| below which closed forms are replaced by the local series.
SERIES_GUARD = 1e-3
_GUARD_ORDER = 24


def _horner(coeffs, y):
    """sum coeffs[n] y^n for a float or a numpy array y."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _guard_coeffs(name: str):
    if name == "F":
        return tables.coeffs_F(_GUARD_ORDER).float_coeffs()
    if name == "G":
        return tables.coeffs_G(_GUARD_ORDER).float_coeffs()
    return tables.coeffs_jbs(_GUARD_ORDER, "log").float_coeffs()


_guard_cache: dict = {}


def _guarded(name: str, y: float) -> float:
    coeffs = _guard_cache.get(name)
    if coeffs is None:
        coeffs = _guard_coeffs(name)
        _guard_cache[name] = coeffs
    val = _horner(coeffs, y)
    if name == "F":
        return val + (PI2_HALF - 1.0)
    if name == "G":
        return math.sqrt(3.0) * val
    return val


def JBS_exact(x: float, cfg: RootSolverConfig = DEFAULT_CONFIG) -> float:
    """Small-maturity decay rate of the time-averaged gBM density at x."""
    if x <= 0:
        raise ValueError("JBS_exact needs x > 0")
    y = math.log(x)
    if abs(y) < SERIES_GUARD:
        return _guarded("JBS", y)
    if x >= 1.0:
        xi = solve_xi(x, cfg)
        return 0.5 * xi * xi - xi * math.tanh(0.5 * xi)
    zeta = solve_zeta(x, cfg)
    return zeta * math.tan(0.5 * zeta) - 0.5 * zeta * zeta


def F_exact(rho: float, cfg: RootSolverConfig = DEFAULT_CONFIG) -> float:
    """Exponent function of the small-time Hartman-Watson expansion."""
    if rho <= 0:
        raise ValueError("F_exact needs rho > 0")
    y = math.log(rho)
    if abs(y) < SERIES_GUARD:
        return _guarded("F", y)
    if rho < 1.0:
        kappa = solve_kappa(rho, cfg)
        return 0.5 * kappa * kappa - kappa / math.tanh(kappa) + PI2_HALF
    lam = solve_lambda(rho, cfg)
    return -0.5 * lam * lam + (math.pi - lam) / math.tan(lam) + math.pi * lam


def G_exact(rho: float, cfg: RootSolverConfig = DEFAULT_CONFIG) -> float:
    """Prefactor function of the small-time Hartman-Watson expansion."""
    if rho <= 0:
        raise ValueError("G_exact needs rho > 0")
    y = math.log(rho)
    if abs(y) < SERIES_GUARD:
        return _guarded("G", y)
    if rho < 1.0:
        kappa = solve_kappa(rho, cfg)
        # At the root rho sinh(kappa) = kappa, so rho cosh(kappa) equals
        # kappa/tanh(kappa); this form never overflows at tiny rho.
        return kappa / math.sqrt(kappa / math.tanh(kappa) - 1.0)
    lam = solve_lambda(rho, cfg)
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


def critical_points(count: int = 5, cfg: RootSolverConfig = DEFAULT_CONFIG) -> CriticalPointTable:
    if count < 1:
        raise ValueError("count must be >= 1")
    entries = []
    for k in range(1, count + 1):
        eta = solve_tan_eta(k, cfg)
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
