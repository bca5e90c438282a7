"""The Hartman-Watson integral and its small-time leading asymptotics.

theta_r(t) is the oscillatory integral

    theta_r(t) = r/sqrt(2 pi^3 t) e^{pi^2/(2t)}
                 int_0^inf e^{-xi^2/(2t)} e^{-r cosh xi} sinh(xi)
                 sin(pi xi / t) dxi.

The e^{pi^2/(2t)} prefactor against the oscillatory sine makes the
integral catastrophically cancellative as t decreases: the integrand
peaks e^{pi^2/(2t)}-style above the result.  In double precision the
noise floor crosses the answer around t ~ 0.3, and by t <= 0.05 node
doubling no longer converges at all -- theta_hw_stability() exposes that
breakdown directly.  theta_hw therefore evaluates in mpmath arbitrary
precision with working digits scaled to the cancellation, and refuses
t < SMALL_T_THRESHOLD outright, pointing at the asymptotic route:

    theta_{rho/t}(t) ~ 1/(2 pi t) e^{-(F(rho) - pi^2/2)/t} G(rho),

which is theta_asympt below (leading order, O(t^0) remainder).
"""

from __future__ import annotations

import math

import numpy as np

from . import exact
from .quadrature import gauss_legendre_nodes

SMALL_T_THRESHOLD = 0.1
_REL_TOL = 1e-10      # theta_hw: agreement of its two mpmath quadratures
_PROBE_NODES = (96, 192, 384, 768, 1536)      # theta_hw_stability's rules


class ThetaSmallTimeError(RuntimeError):
    """Raised when direct quadrature of theta_r(t) is hopeless."""


def theta_asympt(rho: float, t: float, F_eval=None, G_eval=None) -> float:
    """Leading small-t value of theta_{rho/t}(t)."""
    if rho <= 0 or t <= 0:
        raise ValueError("theta_asympt needs rho > 0 and t > 0")
    F = F_eval(rho) if F_eval is not None else exact.F_exact(rho)
    G = G_eval(rho) if G_eval is not None else exact.G_exact(rho)
    return math.exp(-(F - exact.PI2_HALF) / t) * G / (2.0 * math.pi * t)


def _dps_for(t: float) -> int:
    # digits lost to cancellation ~ pi^2/(2t) / ln 10, plus working margin
    return int(math.pi ** 2 / (2.0 * t) / math.log(10.0) * 1.3) + 25


def theta_hw(r: float, t: float) -> float:
    """theta_r(t) by direct quadrature in adaptive precision.

    Two mpmath quadratures on different splits of the window must agree
    to _REL_TOL, else ThetaSmallTimeError.  Refuses t < SMALL_T_THRESHOLD
    (the cancellation makes node counts and precision explode); use
    theta_asympt with rho = r t there.
    """
    if r <= 0 or t <= 0:
        raise ValueError("theta_hw needs r > 0 and t > 0")
    if t < SMALL_T_THRESHOLD:
        raise ThetaSmallTimeError(
            f"direct quadrature of theta_r(t) is unreliable for t < "
            f"{SMALL_T_THRESHOLD}; use theta_asympt(rho=r*t, t) instead")
    import mpmath as mp  # costs start-up time; only this function needs it

    dps = _dps_for(t)
    with mp.workdps(dps):
        tt = mp.mpf(t)
        rr = mp.mpf(r)
        # window: e^{(pi^2 - xi^2)/(2t)} below 10^-(dps) past xi_max
        xi_max = mp.sqrt(mp.pi ** 2 + 2 * tt * (dps * mp.log(10) + 25))

        def integrand(xi):
            return (mp.e ** (-xi ** 2 / (2 * tt) - rr * mp.cosh(xi))
                    * mp.sinh(xi) * mp.sin(mp.pi * xi / tt))

        val = mp.quad(integrand, [0, float(xi_max) / 3, 2 * float(xi_max) / 3,
                                  xi_max])
        check = mp.quad(integrand, mp.linspace(0, xi_max, 7))
        if abs(val - check) > abs(val) * _REL_TOL + mp.mpf(10) ** (-dps + 8):
            raise ThetaSmallTimeError(
                f"theta quadrature unstable at r={r}, t={t}")
        pref = rr / mp.sqrt(2 * mp.pi ** 3 * tt) * mp.e ** (mp.pi ** 2 / (2 * tt))
        return float(pref * val)


def theta_hw_stability(r: float, t: float) -> dict:
    """Node-doubling probe of the raw double-precision quadrature.

    Evaluates the theta integral with Gauss-Legendre in float64 at 96,
    192, ..., 1536 nodes (_PROBE_NODES) and reports the successive
    relative changes.  Stable (small, shrinking changes) for moderate t;
    at t <= 0.05 the cancellation noise dominates and the changes stay
    O(1) or worse -- exactly the breakdown that motivates the asymptotic
    evaluation.
    """
    if r <= 0 or t <= 0:
        raise ValueError("need r > 0 and t > 0")
    xi_max = math.sqrt(math.pi ** 2 + 2.0 * t * 60.0 * math.log(10.0))
    pref_log = math.log(r) - 0.5 * math.log(2.0 * math.pi ** 3 * t)
    values = []
    for n in _PROBE_NODES:
        x, w = gauss_legendre_nodes(0.0, xi_max, n)
        # exponent kept together so the e^{pi^2/2t} amplification is explicit
        expo = (math.pi ** 2 - x ** 2) / (2.0 * t) - r * np.cosh(x) + pref_log
        vals = np.exp(expo) * np.sinh(x) * np.sin(math.pi * x / t)
        values.append(float(np.dot(vals, w)))
    rel_changes = []
    for a, b in zip(values, values[1:]):
        scale = max(abs(a), abs(b), 1e-300)
        rel_changes.append(abs(b - a) / scale)
    return {"values": values, "rel_changes": rel_changes,
            "converged": rel_changes[-1] < 1e-6}
