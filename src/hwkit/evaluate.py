"""Fast piecewise evaluators for F, G and J_BS.

Inside a configurable window around the expansion point the value is a
degree-N polynomial in log(rho) (Horner, float coefficients converted
once from the exact tables); outside the window the closed-form
root-finding evaluation takes over.  The window must stay strictly inside
the convergence disk |log rho| < rho_x ~ 3.49295; the default window
rho in [0.04, 32.88] is the configuration used for the benchmark pricing
runs and spans essentially the whole disk.

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

from . import exact, tables
from .asympt import _geom  # rho_x guard
from .roots import DEFAULT_CONFIG, RootSolverConfig

DEFAULT_DOMAIN = (0.04, 32.88)
_TARGETS = ("F", "G", "JBS")


class EvaluatorError(ValueError):
    pass


@dataclass(frozen=True)
class PiecewiseEvaluator:
    """Series-inside / closed-form-outside evaluator for one target.

    log_lo/log_hi are the switch points in the log variable; coeffs are
    the float-converted series coefficients (index n multiplies
    log(rho)^n), offset/prefactor the additive and multiplicative
    constants of the target (pi^2/2 - 1 for F, sqrt 3 for G).
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

    def _outer(self, rho: float, cfg: RootSolverConfig) -> float:
        if self.target == "F":
            return exact.F_exact(rho, cfg)
        if self.target == "G":
            return exact.G_exact(rho, cfg)
        return exact.JBS_exact(rho, cfg)

    def __call__(self, rho, cfg: RootSolverConfig = DEFAULT_CONFIG):
        if np.ndim(rho) == 0:
            return self._eval_scalar(float(rho), cfg)
        arr = np.asarray(rho, dtype=float)
        out = np.empty_like(arr)
        flat = arr.reshape(-1)
        res = out.reshape(-1)
        y = np.log(flat)
        inner = (y >= self.log_lo) & (y <= self.log_hi)
        if inner.any():
            res[inner] = self._poly(y[inner])
        for i in np.nonzero(~inner)[0]:
            res[i] = self._outer(flat[i], cfg)
        return out

    def _poly(self, y):
        return self.prefactor * exact._horner(self.coeffs, y) + self.offset

    def _eval_scalar(self, rho: float, cfg: RootSolverConfig) -> float:
        if rho <= 0:
            raise EvaluatorError("argument must be positive")
        y = math.log(rho)
        if self.log_lo <= y <= self.log_hi:
            return self._poly(y)
        return self._outer(rho, cfg)


def make_evaluator(target: str, order: int,
                   domain: tuple = DEFAULT_DOMAIN) -> PiecewiseEvaluator:
    """Build a PiecewiseEvaluator from the exact tables.

    `domain` is the (lo, hi) window in the function's own argument; it
    must sit strictly inside the convergence disk of radius rho_x in the
    log variable, otherwise the series is divergent there and the request
    is refused.
    """
    if target not in _TARGETS:
        raise EvaluatorError(f"target must be one of {_TARGETS}")
    if order < 1:
        raise EvaluatorError("order must be >= 1")
    lo, hi = domain
    if not (0 < lo < hi):
        raise EvaluatorError("domain must satisfy 0 < lo < hi")
    _, rho_x, _ = _geom()
    log_lo, log_hi = math.log(lo), math.log(hi)
    if max(abs(log_lo), abs(log_hi)) >= rho_x:
        raise EvaluatorError(
            f"domain [{lo}, {hi}] leaves the series convergence disk "
            f"(|log rho| < {rho_x:.5f})")
    if target == "F":
        ser = tables.coeffs_F(order)
        offset, prefactor = exact.PI2_HALF - 1.0, 1.0
    elif target == "G":
        ser = tables.coeffs_G(order)
        offset, prefactor = 0.0, math.sqrt(3.0)
    else:
        ser = tables.coeffs_jbs(max(order, 2), "log").truncate(max(order, 2))
        offset, prefactor = 0.0, 1.0
    return PiecewiseEvaluator(target=target, order=ser.order, log_lo=log_lo,
                              log_hi=log_hi, coeffs=tuple(ser.float_coeffs()),
                              offset=offset, prefactor=prefactor)


def truncation_error_profile(target: str, orders, rho_grid, domain=None):
    """max |series_N - exact| per truncation order N over a rho grid.

    The grid must lie inside the series window so the series path is the
    one being profiled.  Returns (per_order, per_point) where per_order
    maps N -> max abs error and per_point maps N -> list of (rho, err).
    """
    rho_grid = [float(r) for r in rho_grid]
    if domain is None:
        lo = min(rho_grid) * 0.999
        hi = max(rho_grid) * 1.001
        domain = (max(lo, DEFAULT_DOMAIN[0]), min(hi, DEFAULT_DOMAIN[1]))
    ref = {"F": exact.F_exact, "G": exact.G_exact, "JBS": exact.JBS_exact}[target]
    exact_vals = [ref(r) for r in rho_grid]
    per_order, per_point = {}, {}
    for n in orders:
        ev = make_evaluator(target, n, domain)
        errs = [(r, abs(ev(r) - x)) for r, x in zip(rho_grid, exact_vals)]
        per_point[n] = errs
        per_order[n] = max(e for _, e in errs)
    return per_order, per_point
