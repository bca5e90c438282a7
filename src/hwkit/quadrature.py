"""One-dimensional quadrature on finite intervals, vectorized.

* integrate: tanh-sinh (double-exponential) with level halving of the
  step; excellent for smooth integrands and tolerant of endpoint
  decay/vanishing.  Its endpoints may be arrays: then every interval runs
  in one array pass per level, and each leaves the pass at its own first
  converged level.  The Bessel cosh integral is its one user, batched
  over the nodes of one normalization level.
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


def integrate(f, a, b, spec: QuadratureSpec = DEFAULT_SPEC):
    """Tanh-sinh integral of vectorized f over [a, b]: (value, err_estimate).

    The step halves from level 2 to spec.levels.  Each interval keeps the
    value of its first level that agrees with the previous one to
    spec.target_rel_err; an interval that has not agreed by spec.levels
    raises QuadratureError.

    Scalar a and b: f(x) takes a 1-D array of abscissae and the result is
    (float, float).  Array a and b (broadcast together): every interval
    runs in one array pass per level, and f(x, rows) takes a 2-D array
    whose i-th row holds abscissae on interval rows[i] (a flat index into
    the broadcast shape).  A converged interval leaves the set, so f sees
    only the rows still open; the result is (values, errs) of the
    broadcast shape.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    if not np.all(b > a):
        raise ValueError("need b > a")
    if scalar:
        def on_rows(x, rows):
            return np.asarray(f(x[0]), dtype=float)[None]
    else:
        on_rows = f
    mid, half = (0.5 * (a + b)).ravel(), (0.5 * (b - a)).ravel()
    val, err = np.empty(mid.size), np.empty(mid.size)
    rows = np.arange(mid.size)
    prev = None
    for level in range(2, spec.levels + 1):
        if not rows.size:
            break
        x, w = _tanh_sinh_nodes(level)
        m, h = mid[rows, None], half[rows]
        cur = h * (on_rows(m + h[:, None] * x, rows) @ w)
        if prev is not None:
            diff = np.abs(cur - prev)
            done = diff <= spec.target_rel_err * np.maximum(np.abs(cur),
                                                            1e-300)
            val[rows[done]], err[rows[done]] = cur[done], diff[done]
            rows, cur = rows[~done], cur[~done]
        prev = cur
    if rows.size:
        i = rows[0]
        raise QuadratureError(
            f"tanh-sinh did not converge on [{a.flat[i]}, {b.flat[i]}]"
            + ("" if scalar else f" ({rows.size} of {mid.size} intervals)"))
    if scalar:
        return float(val[0]), float(err[0])
    return val.reshape(a.shape), err.reshape(a.shape)
