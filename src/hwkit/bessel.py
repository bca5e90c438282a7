"""Modified Bessel function of the second kind via its cosh integral.

    K_nu(x) = int_0^inf exp(-x cosh u) cosh(nu u) du          (x > 0)

The normalization integrals of the pricing module need K_{-mu}(rho/tau)
at arguments up to ~1e4, far past the underflow point of the plain
function, so the working form is the exponentially scaled

    K~_nu(x) = e^x K_nu(x) = int_0^inf exp(-x (cosh u - 1)) cosh(nu u) du,

whose integrand is bounded by 1 near u = 0 and decays double-
exponentially.  The symmetry K_nu = K_{-nu} is automatic (cosh is even in
nu).
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import QuadratureSpec, integrate

_DEFAULT_SPEC = QuadratureSpec(levels=12, target_rel_err=1e-12)


def _cutoff(nu: float, x: float, decades: float = 42.0) -> float:
    """u beyond which x(cosh u - 1) - |nu| u exceeds `decades` in e-folds."""
    target = decades * math.log(10.0)
    u = max(1.0, math.asinh(1.0 / x))
    for _ in range(80):
        val = x * (math.cosh(u) - 1.0) - abs(nu) * u - target
        if val > 0:
            return u
        u *= 1.5
    raise RuntimeError("cutoff search failed")


def bessel_k_scaled(nu: float, x: float,
                    spec: QuadratureSpec = _DEFAULT_SPEC) -> float:
    """e^x K_nu(x) for x > 0."""
    if x <= 0:
        raise ValueError("bessel_k needs x > 0")
    u_max = _cutoff(nu, x)

    def integrand(u):
        return np.exp(-x * (np.cosh(u) - 1.0)) * np.cosh(nu * u)

    val, _ = integrate(integrand, 0.0, u_max, spec)
    return val


def bessel_k_log(nu: float, x: float,
                 spec: QuadratureSpec = _DEFAULT_SPEC) -> float:
    """log K_nu(x), safe for arbitrarily large x."""
    return -x + math.log(bessel_k_scaled(nu, x, spec))


def bessel_k(nu: float, x: float, spec: QuadratureSpec = _DEFAULT_SPEC) -> float:
    """K_nu(x); evaluated through the log domain above x = 700.

    Below the underflow threshold of double precision (~745) the log
    route still returns the correctly rounded subnormal/underflowed
    value; callers needing the magnitude beyond that use bessel_k_log.
    """
    if x > 700.0:
        return math.exp(max(bessel_k_log(nu, x, spec), -745.0))
    return math.exp(-x) * bessel_k_scaled(nu, x, spec)

