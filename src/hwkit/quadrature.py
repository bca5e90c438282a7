"""One-dimensional quadrature on finite intervals, vectorized.

* integrate: tanh-sinh (double-exponential) with level halving of the
  step; excellent for smooth integrands and tolerant of endpoint
  decay/vanishing.  The Bessel cosh integral is its one user.
* gauss_legendre_nodes: cached Gauss-Legendre nodes mapped to [a, b],
  from which pricing's node-doubling driver builds every pricing
  integral.

Integrands must accept numpy arrays.  Infinite-range integrals in this
package are always reduced to finite windows first (the windows are
chosen from the Gaussian-scale decay of the integrands), so no infinite
mappings live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    levels: int = 12
    target_rel_err: float = 1e-9

    def __post_init__(self):
        if self.target_rel_err <= 0:
            raise ValueError("target_rel_err must be positive")


DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=64)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre_nodes(a: float, b: float, n: int):
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@lru_cache(maxsize=32)
def _tanh_sinh_nodes(level: int, t_max: float = 3.6):
    """Nodes/weights of the DE rule on (-1, 1) at step h = t_max/2^level."""
    h = t_max / 2 ** level
    t = np.arange(-2 ** level, 2 ** level + 1) * h
    u = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(u)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    keep = 1.0 - np.abs(x) > 1e-17
    return x[keep], w[keep]


def integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC):
    """Tanh-sinh integral of vectorized f over [a, b]: (value, err_estimate).

    The step halves from level 2 to spec.levels until two levels agree to
    spec.target_rel_err, else QuadratureError.
    """
    if not b > a:
        raise ValueError("need b > a")
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    prev = None
    for level in range(2, spec.levels + 1):
        x, w = _tanh_sinh_nodes(level)
        val = half * float(np.dot(f(mid + half * x), w))
        if prev is not None:
            err = abs(val - prev)
            if err <= spec.target_rel_err * max(abs(val), 1e-300):
                return val, err
        prev = val
    raise QuadratureError(f"tanh-sinh did not converge on [{a}, {b}]")
