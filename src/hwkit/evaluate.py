"""Fast piecewise evaluators for F, G and J_BS.

Inside a configurable window around the expansion point the value is a
degree-N polynomial in log(rho): the target's `exact.target_table` entry
summed by `exact.series_value`, the same Horner the closed forms use near
rho = 1.  Outside the window the closed form (`closed_form(target)`, the
`exact.*_exact` function looked up at call time) takes over, in one call
on all the outside points of the argument.  Scalars and arrays take one
path: a scalar comes back as a float, an array as an array of its shape,
and any argument that is not positive and finite raises EvaluatorError.
The window must stay strictly inside the convergence disk
|log rho| < rho_x ~ 3.49295; the default window rho in [0.04, 32.88] is
the configuration used for the benchmark pricing runs and spans
essentially the whole disk.

Note the truncation error at the edge of the full disk is substantial for
small N (the series converges slowly there); that is deliberate for the
pricing default, where the integrands weight the region near rho = 1
exponentially.  Callers who need uniform accuracy pass a narrower domain
(truncation_error_profile helps pick one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact

DEFAULT_DOMAIN = (0.04, 32.88)


class EvaluatorError(ValueError):
    pass


def closed_form(target: str):
    """exact.F_exact, G_exact or JBS_exact, looked up at call time."""
    return getattr(exact, f"{target}_exact")


@dataclass(frozen=True)
class PiecewiseEvaluator:
    """Series-inside / closed-form-outside evaluator for one target.

    log_lo/log_hi are the switch points in the log variable; coeffs,
    offset and prefactor are the target's `exact.target_table` entry (index
    n of coeffs multiplies log(rho)^n; offset is pi^2/2 - 1 for F, the
    prefactor sqrt 3 for G).
    """

    target: str
    order: int
    log_lo: float
    log_hi: float
    coeffs: tuple
    offset: float
    prefactor: float

    @property
    def rho_lo(self) -> float:
        return math.exp(self.log_lo)

    @property
    def rho_hi(self) -> float:
        return math.exp(self.log_hi)

    def __call__(self, rho):
        """The target at rho: a float for a scalar, an array of its shape otherwise."""
        x = np.asarray(rho, dtype=float)
        if not ((x > 0.0) & (x < np.inf)).all():
            raise EvaluatorError("argument must be positive and finite")
        y = np.log(x)
        inner = (y >= self.log_lo) & (y <= self.log_hi)
        # zero outside the window keeps the discarded polynomial values finite
        out = np.array(exact.series_value(self.coeffs, self.offset,
                                          self.prefactor, y * inner))
        if not inner.all():
            out[~inner] = closed_form(self.target)(x[~inner])
        return out if out.ndim else float(out)


def make_evaluator(target: str, order: int,
                   domain: tuple = DEFAULT_DOMAIN) -> PiecewiseEvaluator:
    """Build a PiecewiseEvaluator from the exact tables.

    `domain` is the (lo, hi) window in the function's own argument; it
    must sit strictly inside the convergence disk of radius rho_x in the
    log variable, otherwise the series is divergent there and the request
    is refused.
    """
    if target not in exact.TARGETS:
        raise EvaluatorError(f"target must be one of {exact.TARGETS}")
    if order < 1:
        raise EvaluatorError("order must be >= 1")
    lo, hi = domain
    if not (0 < lo < hi):
        raise EvaluatorError("domain must satisfy 0 < lo < hi")
    rho_x = exact.critical_points(1).rho_x
    log_lo, log_hi = math.log(lo), math.log(hi)
    if max(abs(log_lo), abs(log_hi)) >= rho_x:
        raise EvaluatorError(
            f"domain [{lo}, {hi}] leaves the series convergence disk "
            f"(|log rho| < {rho_x:.5f})")
    coeffs, offset, prefactor = exact.target_table(target, order)
    return PiecewiseEvaluator(target=target, order=len(coeffs) - 1,
                              log_lo=log_lo, log_hi=log_hi, coeffs=coeffs,
                              offset=offset, prefactor=prefactor)


def truncation_error_profile(target: str, orders, rho_grid, domain=None):
    """max |series_N - exact| per truncation order N over a rho grid.

    The grid must lie inside the series window so the series path is the
    one being profiled; a point outside it raises EvaluatorError.  The
    default window spans the grid, clipped to DEFAULT_DOMAIN.  Returns
    (per_order, per_point) where per_order maps N -> max abs error and
    per_point maps N -> list of (rho, err).
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    if domain is None:
        lo = float(rho_grid.min()) * 0.999
        hi = float(rho_grid.max()) * 1.001
        domain = (max(lo, DEFAULT_DOMAIN[0]), min(hi, DEFAULT_DOMAIN[1]))
    evaluators = {n: make_evaluator(target, n, domain) for n in orders}
    y = np.log(rho_grid)
    outside = np.flatnonzero((y < math.log(domain[0])) | (y > math.log(domain[1])))
    if outside.size:
        raise EvaluatorError(
            f"grid point rho = {rho_grid[outside[0]].item()!r} lies outside "
            f"the series window [{domain[0]!r}, {domain[1]!r}]")
    exact_vals = closed_form(target)(rho_grid)
    per_order, per_point = {}, {}
    for n, ev in evaluators.items():
        errs = np.abs(ev(rho_grid) - exact_vals)
        per_point[n] = list(zip(rho_grid.tolist(), errs.tolist()))
        per_order[n] = float(errs.max())
    return per_order, per_point
