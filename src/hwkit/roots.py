"""Bracketed solvers for the transcendental equations behind F, G and J_BS.

F, G and J_BS rest on two equations only: sinh(x)/x = c (solve_xi, and
solve_kappa(rho) = solve_xi(1/rho)) and sin(x)/x = c (solve_zeta, and
solve_lambda(rho) = pi - solve_zeta(1/rho)).  solve_tan_eta gives the
critical points.  Every equation is solved the same way: an analytically
safe bracket, bisection until Newton is trustworthy, then Newton polish to
_ABS_TOL in at most _MAX_ITER steps.  No starting guesses, no convergence
luck.  The sinh equation moves to the log domain above xi = 30 to dodge
overflow.  Non-finite or out-of-domain arguments raise ValueError.
"""

from __future__ import annotations

import math
import numbers

_ABS_TOL = 1e-14
_MAX_ITER = 100


class RootSolveError(RuntimeError):
    """Non-convergence; carries the last iterate and residual."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


def _bisect_newton(f, df, lo, hi) -> float:
    """Root of f on [lo, hi] with f(lo) <= 0 <= f(hi) (or flipped)."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise RootSolveError(f"root not bracketed on [{lo}, {hi}]",
                             last_iterate=lo, residual=flo)
    sign = 1.0 if fhi > 0 else -1.0
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if sign * fm >= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-4 * (1.0 + abs(mid)):
            break
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        fx = f(x)
        d = df(x)
        if d == 0:
            break
        step = fx / d
        xn = x - step
        if not (lo <= xn <= hi):  # fall back to bisection inside the bracket
            if sign * fx > 0:
                hi = x
            else:
                lo = x
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= _ABS_TOL * (1.0 + abs(xn)):
            return xn
        x = xn
    fx = f(x)
    if abs(fx) <= 1e3 * _ABS_TOL:
        return x
    raise RootSolveError("Newton polish failed to converge",
                         last_iterate=x, residual=fx)


def _sinhc(x: float) -> float:
    return math.sinh(x) / x if x != 0 else 1.0


def solve_xi(x: float) -> float:
    """xi >= 0 with sinh(xi)/xi = x, for x >= 1.

    Above xi = 30 the residual is formed as log(sinh xi) - log(xi x) =
    xi + log1p(-e^{-2 xi}) - log 2 - log(xi x), which is overflow-free for
    arbitrarily large x.
    """
    if not 1.0 <= x < math.inf:
        raise ValueError("solve_xi needs 1 <= x < inf")
    if x == 1.0:
        return 0.0
    lx = math.log(x)

    def f(t):
        if t <= 30.0:
            return math.log(_sinhc(t)) - lx
        return t + math.log1p(-math.exp(-2.0 * t)) - math.log(2.0) - math.log(t) - lx

    def df(t):
        if t < 1e-4:
            return t / 3.0
        return 1.0 / math.tanh(t) - 1.0 / t

    lo, hi = 0.0, 1.0
    while f(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise RootSolveError("upper bracket growth failed", last_iterate=hi)
    xi = _bisect_newton(f, df, lo, hi)
    return max(xi, 0.0)


def solve_zeta(x: float) -> float:
    """zeta in [0, pi] with sin(zeta)/zeta = x, for 0 < x <= 1.

    sin(z)/z decreases from 1 to 0 on [0, pi]; x -> 0+ pushes the root to
    pi.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("solve_zeta needs 0 < x <= 1")
    if x == 1.0:
        return 0.0

    def f(t):
        if t < 1e-8:
            return (x - 1.0) + t * t / 6.0
        return x - math.sin(t) / t

    def df(t):
        if t < 1e-8:
            return t / 3.0
        return (math.sin(t) / t - math.cos(t)) / t

    return _bisect_newton(f, df, 0.0, math.pi)


def solve_kappa(rho: float) -> float:
    """kappa >= 0 with rho sinh(kappa)/kappa = 1, for 0 < rho < 1.

    This is sinh(kappa)/kappa = 1/rho; for tiny rho the root grows like
    log(2/rho) + log log(2/rho), which the doubling bracket reaches in a
    handful of steps.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("solve_kappa needs 0 < rho < 1")
    return solve_xi(1.0 / rho)


def solve_lambda(rho: float) -> float:
    """lambda in (0, pi) with lambda + rho sin(lambda) = pi, for rho > 1.

    In delta = pi - lambda the equation reads sin(delta)/delta = 1/rho,
    with delta = 0 divided out, so delta = solve_zeta(1/rho).
    """
    if not 1.0 < rho < math.inf:
        raise ValueError("solve_lambda needs 1 < rho < inf")
    return math.pi - solve_zeta(1.0 / rho)


def solve_tan_eta(k: int) -> float:
    """k-th positive root of tan(eta) = eta, in (k pi, k pi + pi/2).

    Solved via sin(eta) - eta cos(eta) = 0, which is bounded on the
    bracket (tan itself blows up at the right endpoint).
    """
    if not (isinstance(k, numbers.Integral) and k >= 1):
        raise ValueError("solve_tan_eta needs an integer k >= 1")

    def f(t):
        return math.sin(t) - t * math.cos(t)

    def df(t):
        return t * math.sin(t)

    lo = k * math.pi + 1e-9
    hi = k * math.pi + math.pi / 2.0 - 1e-12
    return _bisect_newton(f, df, lo, hi)
