"""Modified Bessel function of the second kind via its cosh integral.

    K_nu(x) = int_0^inf exp(-x cosh u) cosh(nu u) du          (x > 0)

The normalization integrals of the pricing module need K_{-mu}(rho/tau)
at arguments up to ~1e4, far past the underflow point of the plain
function, so the working form is the exponentially scaled

    K~_nu(x) = e^x K_nu(x) = int_0^inf exp(-x (cosh u - 1)) cosh(nu u) du,

whose integrand decays double-exponentially.  It is evaluated as one exp
of the combined exponent,

    exp(-x (cosh u - 1)) cosh(nu u)
        = exp(|nu| u - 2 x sinh^2(u/2)) (1 + exp(-2 |nu| u)) / 2,

so cosh(nu u) never overflows on its own at large |nu|, and
2 sinh^2(u/2) keeps the digits that cosh u - 1 loses near u = 0 at large
x (about 4e-16 relative at nu = 999.5, x = 4e4, against 2e-12).  The
symmetry K_nu = K_{-nu} is automatic (only |nu| enters).

bessel_k_scaled works elementwise over an array x: all its integrals run
through one batched tanh-sinh call, which is how pricing.norm_factor
evaluates K_{-mu} on every node of a level at once.  scipy.special.kve
would give the same values, but importing scipy.special costs about
20 MB of resident memory and 0.2 s at start-up, more than this whole
layer costs a pricing run, so it is not used.

Inputs are refused with ValueError, before any integral runs, when nu or
any x is not finite or any x is not positive.  A result that would
overflow double precision, or an integral whose decay point lies past
u = 700 (where cosh itself nears overflow), raises QuadratureError.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import QuadratureError, QuadratureSpec, integrate

_DEFAULT_SPEC = QuadratureSpec(levels=12, target_rel_err=1e-12)
_U_MAX = 700.0      # cosh(u) and the integrand stay finite below it


def _cutoff(nu: float, x: np.ndarray, decades: float = 42.0) -> np.ndarray:
    """Per x, a u beyond which x(cosh u - 1) - |nu| u exceeds `decades`
    in e-folds: u grows by 1.5x from max(1, asinh(1/x)), capped at
    _U_MAX, until it does."""
    target = decades * math.log(10.0)
    u = np.minimum(np.maximum(1.0, np.arcsinh(1.0 / np.maximum(x, 1e-300))),
                   _U_MAX)
    while True:
        short = x * (np.cosh(u) - 1.0) - abs(nu) * u - target <= 0
        if not short.any():
            return u
        if u[short].max() >= _U_MAX:
            raise QuadratureError(f"K_{nu}: no integration window below "
                                  f"u = {_U_MAX} at x = {x[short].min()}")
        u = np.where(short, np.minimum(1.5 * u, _U_MAX), u)


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


def bessel_k_scaled(nu: float, x, spec: QuadratureSpec = _DEFAULT_SPEC):
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

    def integrand(u, rows):
        decay = 2.0 * flat[rows, None] * np.sinh(0.5 * u) ** 2
        return 0.5 * np.exp(anu * u - decay) * (1.0 + np.exp(-2.0 * anu * u))

    val, _ = integrate(integrand, 0.0, u_max, spec)
    return float(val[0]) if xs.ndim == 0 else val.reshape(xs.shape)


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
    nu, x = _checked(nu, x)
    x = float(x)
    if x > 700.0:
        return math.exp(max(bessel_k_log(nu, x, spec), -745.0))
    return math.exp(-x) * bessel_k_scaled(nu, x, spec)
