"""One-dimensional quadrature on finite intervals, vectorized.

* integrate: tanh-sinh (double-exponential) with level halving of the
  step; excellent for smooth integrands and tolerant of endpoint
  decay/vanishing.  Its endpoints may be arrays: then every interval runs
  in one array pass per level, and each leaves the pass at its own first
  converged level.  The Bessel cosh integral is its one user, batched
  over the nodes of one normalization level.  Its convergence policy is
  fixed: levels 2 to 12, relative agreement 1e-12.
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
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    pass


_T_MAX = 3.6          # tanh-sinh nodes run over t in [-_T_MAX, _T_MAX]
_LEVELS = 12          # tanh-sinh levels: the step halves up to _T_MAX/2^12
_REL_TOL = 1e-12      # agreement between two levels that ends an interval


@lru_cache(maxsize=64)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre_nodes(a: float, b: float, n: int):
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@lru_cache(maxsize=32)
def _tanh_sinh_nodes(level: int):
    """Nodes/weights of the DE rule on (-1, 1) at step h = _T_MAX/2^level.

    Level 2 gives its whole rule.  A higher level gives only the nodes
    with an odd t index: the even ones are the previous level's, whose
    sum that level's value already holds.
    """
    h = _T_MAX / 2 ** level
    j = np.arange(-2 ** level, 2 ** level + 1)
    if level > 2:
        j = j[j % 2 == 1]
    t = j * h
    u = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(u)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    keep = 1.0 - np.abs(x) > 1e-17
    return x[keep], w[keep]


def integrate(f, a, b):
    """Tanh-sinh integral of vectorized f over [a, b]: (value, err_estimate).

    The step halves from level 2 to _LEVELS; the levels are nested, so
    each evaluates f only at its new nodes and adds their sum to half the
    previous level's value.  Each interval keeps the value of its first
    level that agrees with the previous one to _REL_TOL; an interval that
    has not agreed by _LEVELS raises QuadratureError.

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
    for level in range(2, _LEVELS + 1):
        if not rows.size:
            break
        x, w = _tanh_sinh_nodes(level)
        m, h = mid[rows, None], half[rows]
        cur = h * (on_rows(m + h[:, None] * x, rows) @ w)
        if prev is not None:
            cur += 0.5 * prev
            diff = np.abs(cur - prev)
            done = diff <= _REL_TOL * np.maximum(np.abs(cur), 1e-300)
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
