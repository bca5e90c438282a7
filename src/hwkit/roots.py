"""Safeguarded Newton solvers for the transcendental equations behind F, G and J_BS.

F, G and J_BS rest on two equations only: sinh(xi)/xi = x (solve_xi, and
solve_kappa(rho) = solve_xi(1/rho)), solved in the log domain, and
lambda + rho sin(lambda) = pi (solve_lambda, and solve_zeta(x) =
pi - solve_lambda(1/x)), solved in lambda, which goes to 0 as rho grows,
so no digits are lost to pi minus a number near pi.  solve_tan_eta gives
the critical points.

Every solver takes a float or an array (a float back for a scalar) and
runs on one loop, `_newton`: an analytic bracket and a start inside it,
Newton steps, and bisection for a step that leaves the bracket, until a
step is under _ABS_TOL, in at most _MAX_ITER steps.  Each element keeps
its first converged iterate, so no value depends on the rest of its
array.  Non-finite or out-of-domain arguments raise ValueError.
"""

from __future__ import annotations

import numpy as np

_ABS_TOL = 1e-14
_MAX_ITER = 100
_PI_LO = 1.2246467991473532e-16     # pi - np.pi


class RootSolveError(RuntimeError):
    """Non-convergence; carries the last iterate and residual."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


def _newton(fdf, c, lo, hi, t):
    """Elementwise root of f(., c) in [lo, hi], from t inside the bracket.

    fdf(t, c) gives (f, f') on 1-D arrays, f increasing on the bracket:
    f(lo) <= 0 <= f(hi) and f' > 0.  The four arrays share one shape; an
    element with lo == hi is its own root.
    """
    shape = np.shape(t)
    c, lo, hi, t = (np.ravel(a) for a in (c, lo, hi, t))
    root = lo.copy()
    i = np.flatnonzero(lo < hi)
    c, lo, hi, t = c[i], lo[i], hi[i], t[i]
    for _ in range(_MAX_ITER):
        if not i.size:
            return root.reshape(shape) if shape else float(root[0])
        f, df = fdf(t, c)
        lo = np.where(f < 0.0, t, lo)
        hi = np.where(f > 0.0, t, hi)
        tn = t - f / df
        tn = np.where((lo <= tn) & (tn <= hi), tn, 0.5 * (lo + hi))
        done = np.abs(tn - t) <= _ABS_TOL * (1.0 + np.abs(tn))
        root[i[done]] = tn[done]
        i, c, lo, hi, t = (a[~done] for a in (i, c, lo, hi, tn))
    raise RootSolveError(f"Newton did not converge in {_MAX_ITER} steps",
                         last_iterate=t, residual=fdf(t, c)[0])


def _sinh_fdf(t, y):
    # log(sinh(t)/t) - y, overflow-free for any t > 0
    return (t + np.log(-np.expm1(-2.0 * t) / (2.0 * t)) - y,
            np.where(t < 1e-4, t / 3.0, 1.0 / np.tanh(t) - 1.0 / t))


def _sinh_root(y):
    """xi >= 0 with log(sinh(xi)/xi) = y >= 0.

    sinh(t)/t <= exp(t^2/6) bounds xi below by sqrt(6 y), and Lazarevic's
    (sinh(t)/t)^3 >= cosh(t) bounds it above by acosh(e^{3y}).
    """
    lo = np.sqrt(6.0 * y)
    hi = 3.0 * y + np.log1p(np.sqrt(-np.expm1(-6.0 * y)))
    return _newton(_sinh_fdf, y, lo, hi, np.clip(y + np.log1p(2.0 * y), lo, hi))


def _sin_fdf(lam, c):
    # sin(lambda) - c (pi - lambda): the sin equation divided by rho = 1/c
    d = (np.pi - lam) + _PI_LO
    return np.sin(lam) - c * d, (c - 1.0) + 2.0 * np.sin(0.5 * d) ** 2


def _lambda(rho):
    """lambda in (0, pi] with lambda + rho sin(lambda) = pi, for rho >= 1.

    With d = pi - lambda and c = 1/rho the root solves sin(d)/d = c.
    sin(d)/d <= 1 - d^2/pi^2 (the first factor of its product) bounds
    lambda below by pi (1 - sqrt(1 - c)), and sin(d)/d >= 1 - d^2/6 bounds
    it above by pi - sqrt(6 (1 - c)); both meet at pi when rho = 1.  The
    start is that upper bound below rho = 2, and above it pi / (1 + rho), a
    lower bound from sin(lambda) <= lambda that is tight as lambda -> 0.
    """
    c = 1.0 / rho
    lo = np.pi * c / (1.0 + np.sqrt(1.0 - c))
    hi = np.pi - np.sqrt(6.0 * (1.0 - c))
    return _newton(_sin_fdf, c, lo, hi, np.where(rho < 2.0, hi, np.pi / (1.0 + rho)))


def solve_xi(x):
    """xi >= 0 with sinh(xi)/xi = x, for 1 <= x < inf."""
    x = np.asarray(x, dtype=float)
    if not ((1.0 <= x) & (x < np.inf)).all():
        raise ValueError("solve_xi needs 1 <= x < inf")
    return _sinh_root(np.log(x))


def solve_kappa(rho):
    """kappa > 0 with rho sinh(kappa)/kappa = 1, for 0 < rho < 1.

    This is solve_xi(1/rho), solved in log(1/rho) = -log(rho) so that no
    tiny rho overflows 1/rho.
    """
    rho = np.asarray(rho, dtype=float)
    if not ((0.0 < rho) & (rho < 1.0)).all():
        raise ValueError("solve_kappa needs 0 < rho < 1")
    return _sinh_root(-np.log(rho))


def solve_lambda(rho):
    """lambda in (0, pi) with lambda + rho sin(lambda) = pi, for 1 < rho < inf."""
    rho = np.asarray(rho, dtype=float)
    if not ((1.0 < rho) & (rho < np.inf)).all():
        raise ValueError("solve_lambda needs 1 < rho < inf")
    return _lambda(rho)


def solve_zeta(x):
    """zeta in [0, pi) with sin(zeta)/zeta = x, for 0 < x <= 1.

    zeta = pi - lambda(1/x), the mirror of solve_lambda; x -> 0+ pushes
    the root to pi, and x = 1 gives 0.
    """
    x = np.asarray(x, dtype=float)
    if not ((0.0 < x) & (x <= 1.0)).all():
        raise ValueError("solve_zeta needs 0 < x <= 1")
    return np.pi - _lambda(1.0 / x)


def _tan_fdf(t, sign):
    # sin(t) - t cos(t), which is bounded on the bracket where tan is not,
    # signed to increase
    return sign * (np.sin(t) - t * np.cos(t)), sign * t * np.sin(t)


def solve_tan_eta(k):
    """k-th positive root of tan(eta) = eta, in (k pi, k pi + pi/2).

    Starts from the asymptotic q - 1/q - 2/(3 q^3), q = (k + 1/2) pi.
    """
    k = np.asarray(k)
    if k.dtype.kind not in "iu" or not (k >= 1).all():
        raise ValueError("solve_tan_eta needs an integer k >= 1")
    q = (k + 0.5) * np.pi
    return _newton(_tan_fdf, 1.0 - 2.0 * (k % 2), k * np.pi, q,
                   q - 1.0 / q - 2.0 / (3.0 * q ** 3))
