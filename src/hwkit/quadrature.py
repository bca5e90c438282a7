"""One-dimensional quadrature on finite intervals, vectorized.

* integrate: the one adaptive driver, node doubling on the caller's
  level(n); each caller fixes its own policy (pricing: 4 levels at 1e-9
  relative; the Bessel cosh integral: 32 to 2048 nodes at 1e-12).
* gauss_legendre_nodes: cached Gauss-Legendre nodes mapped to [a, b],
  the rule every caller builds its levels from.

Integrands must accept numpy arrays.  Infinite-range integrals in this
package are always reduced to finite windows first (the windows are
chosen from the Gaussian-scale decay of the integrands), so no infinite
mappings live here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    pass


@lru_cache(maxsize=64)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre_nodes(a, b, n: int):
    """The n-point rule on [a, b]; columns a and b give one rule per row."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def relative(tol: float):
    """An agree for integrate: each value within tol of itself."""
    return lambda c, p: np.abs(c - p) <= tol * np.maximum(np.abs(c), 1e-300)


def integrate(level, n0: int, levels: int, agree, what: str):
    """Node doubling: level(n) gives a float or an array of values on an
    n-node rule.  From n0 nodes, n doubles up to levels times; each value
    keeps its first level at which agree(values, previous values) holds
    for it.  An open value that is not finite raises QuadratureError at
    once, and so does a value still open after the last level."""
    prev = out = done = None
    n = n0
    for _ in range(levels):
        cur = np.asarray(level(n), dtype=float)
        if done is None:
            out, done = np.empty_like(cur), np.zeros(cur.shape, dtype=bool)
        if not np.isfinite(cur[~done]).all():
            raise QuadratureError(f"{what}: non-finite value at {n} nodes")
        if prev is not None:
            new = ~done & agree(cur, prev)
            out[new], done = cur[new], done | new
            if done.all():
                return out if out.ndim else float(out)
        prev, n = cur, 2 * n
    raise QuadratureError(f"{what} did not converge in {levels} levels "
                          f"({n // 2} nodes)")
