"""Modified Bessel function of the second kind via its cosh integral.

    K_nu(x) = int_0^inf exp(-x cosh u) cosh(nu u) du          (x > 0)

The reference normalization integral pricing.norm_factor needs
K_{-mu}(rho/tau) at arguments up to ~1e4, far past the underflow point
of the plain function, so the working form is the exponentially scaled

    K~_nu(x) = e^x K_nu(x) = int_0^inf exp(-x (cosh u - 1)) cosh(nu u) du,

whose integrand decays double-exponentially.  It is evaluated as one exp
of the combined exponent,

    exp(-x (cosh u - 1)) cosh(nu u)
        = exp(|nu| u - 2 x sinh^2(u/2)) (1 + exp(-2 |nu| u)) / 2,

so cosh(nu u) never overflows on its own at large |nu|, and
2 sinh^2(u/2) keeps the digits that cosh u - 1 loses near u = 0 at large
x (about 4e-16 relative at nu = 999.5, x = 4e4, against 2e-12).  The
symmetry K_nu = K_{-nu} is automatic (only |nu| enters).

bessel_k_scaled works elementwise over an array x: each integral over
[0, u_max(x)] is one row of a single array per level of
quadrature.integrate's Gauss-Legendre node doubling, at a fixed policy
of 32 to 2048 nodes and 1e-12 relative agreement.  Each window ends
where the integrand has fallen 42 decades from its value at u = 0, solved
for directly (x = 1e-300, flat to u near 690 and then falling off
sharply, needs 1024 nodes).  scipy's kve would
give the same values, but importing scipy.special costs about 20 MB of
resident memory and 0.2 s at start-up, more than this whole layer costs
a norm_factor call, so it is not used.

Inputs are refused with ValueError, before any integral runs, when nu or
any x is not finite or any x is not positive.  A result that would
overflow double precision, or an integral whose decay point lies past
u = 700 (where cosh itself nears overflow), raises QuadratureError.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import (QuadratureError, gauss_legendre_nodes, integrate,
                         relative)

_U_MAX = 700.0      # cosh(u) and the integrand stay finite below it
_DECADES = 42.0     # decay of the integrand, in decades, at the cutoff
_N0, _LEVELS, _REL_TOL = 32, 7, 1e-12     # rules of 32 to 2048 nodes
_CUT_TOL = 1e-9     # relative step that ends the cutoff's iteration


def _cutoff(nu: float, x: np.ndarray) -> np.ndarray:
    """Per x, the u at which x(cosh u - 1) - |nu| u reaches _DECADES in
    e-folds, that is 2x sinh^2(u/2) = target + |nu| u: the fixed point of

        u = 2 asinh(sqrt((target + |nu| u)/(2x))),

    iterated from _U_MAX, from where it falls onto the solution without
    passing it.  Floored at min(1, sqrt(2 target/x)), where x u^2/2 reaches
    the target, so the window tracks the peak's width x^(-1/2) at large
    x."""
    target = _DECADES * math.log(10.0)
    anu, root = abs(nu), np.sqrt(2.0 * x)
    u = np.full(x.shape, _U_MAX)
    while True:
        nxt = 2.0 * np.arcsinh(np.sqrt(target + anu * u) / root)
        past = nxt > _U_MAX
        if past.any():
            raise QuadratureError(f"K_{nu}: no integration window below "
                                  f"u = {_U_MAX} at x = {x[past].min()}")
        if (u - nxt <= _CUT_TOL * nxt).all():
            return np.maximum(nxt, np.minimum(1.0, 2.0 * math.sqrt(target)
                                              / root))
        u = nxt


def _overflows(nu: float, x: np.ndarray) -> bool:
    """Whether the integrand's peak exp(|nu| u - x (cosh u - 1)), reached
    at sinh u = |nu|/x, exceeds e^_U_MAX for some x."""
    anu = abs(nu)
    if anu == 0.0:
        return False            # the peak is 1, at u = 0
    s = anu / np.maximum(x, anu * 1e-300)       # sinh of the peak, <= 1e300
    peak = np.arcsinh(s) - s / (np.hypot(1.0, s) + 1.0)      # over |nu|
    return bool((peak > _U_MAX / anu).any())


def _checked(nu, x):
    """(float nu, float array x), or ValueError on a bad input."""
    nu = float(nu)
    xs = np.asarray(x, dtype=float)
    if not (math.isfinite(nu) and np.isfinite(xs).all()):
        raise ValueError(f"bessel_k needs finite nu and x (nu={nu})")
    if not (xs > 0).all():
        raise ValueError("bessel_k needs x > 0")
    return nu, xs


def bessel_k_scaled(nu: float, x):
    """e^x K_nu(x) for x > 0, elementwise over an array x.

    A scalar x gives a float, an array x an array of its shape.
    """
    nu, xs = _checked(nu, x)
    flat = xs.ravel()
    if _overflows(nu, flat):
        raise QuadratureError(f"e^x K_{nu}(x) overflows double precision "
                              f"at x = {flat.min()}")
    u_max = _cutoff(nu, flat)
    anu = abs(nu)

    def level(n):
        u, w = gauss_legendre_nodes(0.0, u_max[:, None], n)
        decay = 2.0 * flat[:, None] * np.sinh(0.5 * u) ** 2
        f = 0.5 * np.exp(anu * u - decay) * (1.0 + np.exp(-2.0 * anu * u))
        return (f * w).sum(-1)

    val = integrate(level, _N0, _LEVELS, relative(_REL_TOL), f"K_{nu}")
    return float(val[0]) if xs.ndim == 0 else val.reshape(xs.shape)
