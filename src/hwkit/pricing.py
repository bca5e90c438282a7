"""Small-maturity joint density of the time-averaged gBM and Asian pricing.

The leading small-t joint density of (time average a, terminal value v)
of the standardized geometric Brownian motion is

    (1/(2 pi t)) v^mu e^{-mu^2 t/2} G(v/a) e^{-I(a,v)/t} da dv/(a v),

    I(a, v) = (1 + v^2)/(2a) + F(v/a) - pi^2/2,

with F, G the Hartman-Watson expansion functions.  Everything priced here
integrates this density.  Working variables are logarithmic throughout
(z = log rho for the ratio, x = log a for the average), where the
exponent becomes -[F(e^z) - pi^2/2 + e^z cosh(x + z)]/t: a nonnegative
bracket, minimized at the density peak, so exp never overflows and a
running max-subtraction keeps the quadrature in range at t as small as
0.0025.  As e^z cosh(x + z) = (e^x e^{2z} + e^-x)/2, the exponent is
separable in e^x, so F and G are evaluated once per z rule, for every x.

Prices come from the marginal density q(x) of x = log a (marginal): its
log is a Chebyshev interpolant built from 65 z-integrals on one shared z
rule, and every call, put, the mass n(tau) (norm_direct) and the mean
(reduced_mean) is a smooth 1-D integral of (a e^x + b) times q, with no
kink.  A batch (price_scenarios) builds one marginal per distinct
(tau, mu) and runs that group's mass n(tau), calls and puts as the rows
of one x integral; only strikes past the window get builds of their
own.  Nothing built for one (tau, mu) outlives the call.  Every
integral runs on quadrature.integrate, the package's one node-doubling
driver, at pricing's policy (_doubling): Gauss-Legendre rules over the
integral's window, n doubling from a fixed start at most 4 times until
two levels agree to 1e-9 relative, else QuadratureError.  A batch of
strikes converges value by value, so a strike's price does not depend
on its batch; a marginal's z-integrals converge together, on one z
rule.

Benchmark convention: the reduced call value c_A tabulated by the
standard seven test scenarios is the *unnormalized* integral (the
normalization n(tau), itself ~ 1 + O(tau), is tabulated separately), and
the dollar price applies it at the end:

    C_A(K, T) = e^{-rT} S0 c_A(k, tau) / n(tau).

price_call_reduced/price_put_reduced therefore return raw values and
PriceResult carries (c_reduced, norm, price).  n(tau) for prices is the
mass of the marginal that priced them.  norm_factor, a 1-D integral
against the modified Bessel function K_{-mu}, is an independent route to
n(tau) that no price path calls: the reference the mass is checked by.

Every z integral takes its window from one rule (_z_window) and the x
range [x_lo, x_hi] it serves: all x for n(tau) and the centre marginal,
x >= log k for a call tail, x <= log k for a put tail, x = log a for f0.
It holds the z where the bracket, least over that range at
u* = clip(-z, x_lo, x_hi), is within O(tau) of its minimum, so deep
tails keep the z that carry them.  F is probed on one fixed z grid, and
the probe values are cached per F evaluator, held through a weak
reference, so an entry goes with its evaluator (a callable that cannot
be hashed or weakly referenced is probed afresh on each call).  The
cache assumes F_eval is a pure function of rho.

An F_eval or G_eval left as None is the default at PRICING_ORDER on
DEFAULT_DOMAIN, built once and kept, so its probe stays cached; an
evaluator the caller passes is always the one used.
"""

from __future__ import annotations

import math
import weakref
from functools import lru_cache
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import exact
from .bessel import bessel_k_scaled
from .evaluate import DEFAULT_DOMAIN, make_evaluator
from .quadrature import (QuadratureError, gauss_legendre_nodes, integrate,
                         relative)

PI2_HALF = exact.PI2_HALF

_LEVELS = 4           # node counts n0 to 8 n0
_REL_TOL = 1e-9       # agreement between two levels that ends an integral
PRICING_ORDER = 6  # series truncation used for the benchmark runs


def _require_finite(**values):
    """Raise ValueError naming every input that is NaN or infinite."""
    bad = [f"{name}={v}" for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise ValueError("non-finite input: " + ", ".join(bad))


def _require_positive(**values):
    """_require_finite, then ValueError naming every input not above 0."""
    _require_finite(**values)
    bad = [f"{name}={v}" for name, v in values.items() if not v > 0]
    if bad:
        raise ValueError("non-positive input: " + ", ".join(bad))


@dataclass(frozen=True)
class Scenario:
    """Black-Scholes Asian call inputs (rates per year, sigma per sqrt-year)."""

    S0: float
    r: float
    sigma: float
    T: float
    K: float

    def __post_init__(self):
        _require_finite(r=self.r)
        _require_positive(S0=self.S0, sigma=self.sigma, T=self.T, K=self.K)


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless pricing inputs: tau = sigma^2 T/4, mu = 2r/sigma^2 - 1,
    k = K/S0."""

    tau: float
    mu: float
    k: float

    def __post_init__(self):
        _require_finite(tau=self.tau, mu=self.mu, k=self.k)

    @classmethod
    def from_scenario(cls, s: Scenario) -> "ReducedParams":
        var = s.sigma ** 2
        if var == 0.0:
            raise ValueError(f"sigma={s.sigma} underflows: sigma^2 = 0")
        return cls(tau=0.25 * var * s.T, mu=2.0 * s.r / var - 1.0,
                   k=s.K / s.S0)


@dataclass(frozen=True)
class PriceResult:
    c_reduced: float          # raw reduced call value c_A(k, tau)
    norm: float               # n(tau), the pricing marginal's mass
    price: float              # C_A(K, T) = e^{-rT} S0 c_reduced / norm
    put_price: Optional[float] = None
    p_reduced: Optional[float] = None


# the seven standard benchmark scenarios (all K = 2.0)
TABLE3_SCENARIOS = (
    Scenario(2.0, 0.02, 0.10, 1.0, 2.0),
    Scenario(2.0, 0.18, 0.30, 1.0, 2.0),
    Scenario(2.0, 0.0125, 0.25, 2.0, 2.0),
    Scenario(1.9, 0.05, 0.50, 1.0, 2.0),
    Scenario(2.0, 0.05, 0.50, 1.0, 2.0),
    Scenario(2.1, 0.05, 0.50, 1.0, 2.0),
    Scenario(2.0, 0.05, 0.50, 2.0, 2.0),
)

# spectral-expansion reference prices for the same scenarios
SPECTRAL_BENCHMARKS = (0.055986, 0.218387, 0.172269, 0.193174, 0.246416,
                       0.306220, 0.350095)


def default_evaluators(order: int = PRICING_ORDER, domain=DEFAULT_DOMAIN):
    return make_evaluator("F", order, domain), make_evaluator("G", order, domain)


_default_pair = lru_cache(maxsize=1)(default_evaluators)


def _evaluators(F_eval, G_eval):
    """(F_eval, G_eval), each missing one replaced by its kept default."""
    if F_eval is None or G_eval is None:
        F0, G0 = _default_pair()
        F_eval = F0 if F_eval is None else F_eval
        G_eval = G0 if G_eval is None else G_eval
    return F_eval, G_eval


# -- rate functions -------------------------------------------------------------

def rate_I(a: float, v: float, F_eval=None) -> float:
    """I(a, v) = (1 + v^2)/(2a) + F(v/a) - pi^2/2; zero at a = v = 1."""
    _require_positive(a=a, v=v)
    F = F_eval(v / a) if F_eval is not None else exact.F_exact(v / a)
    return (1.0 + v * v) / (2.0 * a) + float(F) - PI2_HALF


def rate_J_with_argmin(a: float, F_eval=None) -> tuple:
    """(inf_v I(a, v), argmin v); the infimum is J_BS(a)/4.

    With rho = v/a, dI/dv = 0 reads a rho + F'(rho) = 0.  Along F's roots,
    F'(rho) = -cosh(kappa) under rho = 1, where rho = kappa/sinh(kappa), so
    a = sinh(2 kappa)/(2 kappa) and 2 kappa = solve_xi(a); and F'(rho) =
    cos(lambda) over it, where rho = s/sin(s), s = pi - lambda, so a =
    sin(2 s)/(2 s) and 2 s = solve_zeta(a).  v = a rho (exact.rate_argmin),
    a where the root is 0; the value is I(a, v) on F_eval.
    """
    _require_positive(a=a)
    v = exact.rate_argmin(a)
    return rate_I(a, v, F_eval), v


def rate_J(a: float, F_eval=None) -> float:
    return rate_J_with_argmin(a, F_eval)[0]


def joint_density_leading(a: float, v: float, t: float, mu: float,
                          F_eval=None, G_eval=None) -> float:
    """Leading-order joint density of (average, terminal) w.r.t. da dv: the
    _z_kernel integrand at z = log(v/a), x = log a, by _log_q, over a v."""
    _require_finite(mu=mu)
    _require_positive(a=a, v=v, t=t)
    x = math.log(a)
    w, c = _z_kernel(t, mu, F_eval or exact.F_exact, G_eval or exact.G_exact)(
        np.array([math.log(v / a)]))
    return math.exp(_log_q(*_z_sums(x, w, c, np.ones(1), t), x, t, mu) - x
                    - math.log(v))


# -- adaptive integration windows ------------------------------------------------

# the z grid every window probe evaluates F on
_PROBE_Z = np.arange(-6.0, 6.0 + 1e-9, 0.02)
_probe_cache = weakref.WeakKeyDictionary()     # F_eval -> F(exp(_PROBE_Z))


def _probe_F(F_eval):
    """F_eval on the probe grid, read-only, cached per evaluator."""
    try:
        Fv = _probe_cache.get(F_eval)
    except TypeError:       # unhashable, or no weak reference to it
        return np.asarray(F_eval(np.exp(_PROBE_Z)), dtype=float)
    if Fv is None:
        Fv = np.array(F_eval(np.exp(_PROBE_Z)), dtype=float)
        Fv.flags.writeable = False
        _probe_cache[F_eval] = Fv
    return Fv


def _z_window(tau, mu, F_eval, x_lo=-np.inf, x_hi=np.inf):
    """[z_lo, z_hi] for x = log a in [x_lo, x_hi]: the probe z where
    F(e^z) - pi^2/2 + e^z cosh(u* + z), u* = clip(-z, x_lo, x_hi), is
    within tau (46 + 8 (1 + |mu|)) of its least value, widened by 1.3."""
    span = _PROBE_Z
    B = (_probe_F(F_eval) - PI2_HALF
         + np.exp(span) * np.cosh(np.clip(-span, x_lo, x_hi) + span))
    B = np.where(np.isfinite(B), B, np.inf)
    bmin = float(B.min())
    if bmin == np.inf:
        raise QuadratureError(f"z-window probe (tau={tau}, mu={mu}): the "
                              f"bracket is not finite at any probe point")
    delta = tau * (46.0 + 8.0 * (1.0 + abs(mu)))
    idx = np.nonzero(B <= bmin + delta)[0]
    z_lo, z_hi = span[idx[0]], span[idx[-1]]
    mid = span[int(np.argmin(B))]
    return (mid + 1.3 * (z_lo - mid) - 0.02, mid + 1.3 * (z_hi - mid) + 0.02)


# -- the node-doubling policy and the marginal density of x = log a ------------

def _doubling(level, lo, hi, n0, what: str, agree=relative(_REL_TOL)):
    """quadrature.integrate at pricing's policy, on the Gauss-Legendre rules
    over [lo, hi], from n0 nodes: level(xn, xw) gives the value on one
    rule, or one value per row when lo and hi are columns."""
    return integrate(lambda n: level(*gauss_legendre_nodes(lo, hi, n)), n0,
                     _LEVELS, agree, what)


_Z_NODES, _X_NODES = 128, 32    # first levels: z per build or f0, x per option
_DEGREE = 64          # Chebyshev degree of log q, from 65 points
_CHEB_TOL = 1e-10     # largest allowed trailing coefficient of log q
_CHOP = 1e-13         # coefficients past the last one above this are dropped
_EFOLDS = 40.0        # the x window holds q and e^x q to e^-40 of their peak
_OWN_EFOLDS = 34.0    # e-folds an option integral needs inside the window
_LOG_ZERO = -800.0    # q under e^-800 is 0 in double precision
_DEEP = 20.0          # e-folds under the largest q where agreement turns absolute


def _z_kernel(tau, mu, F_eval, G_eval):
    """zn -> (w, c) on the z rule zn, where the z-integrand's exponent is
    w(z) - e^x c(z) - e^-x/(2 tau): w = -(F(e^z) - pi^2/2)/tau + mu z
    + log G(e^z) and c = e^{2z}/(2 tau).  Kept per rule size, so a build's
    x-window scan and first z level (one z window) share F and G values."""
    terms = {}

    def kernel(zn):
        if zn.size not in terms:
            rho = np.exp(zn)
            w = (-(np.asarray(F_eval(rho), dtype=float) - PI2_HALF) / tau
                 + mu * zn + np.log(np.asarray(G_eval(rho), dtype=float)))
            terms[zn.size] = w, rho * rho / (2.0 * tau)
        return terms[zn.size]
    return kernel


def _z_sums(x, w, c, zw, tau):
    """Per x (a float or a 1-D array), (M, S): e^M S is the z-integral of
    e^{w - e^x c - e^-x/(2 tau)} on the rule with weights zw, (w, c) from
    _z_kernel.  M, the z-free term plus the row's largest exponent, is
    shifted out before exp: one outer product and one exp per grid."""
    L = w - np.multiply.outer(np.exp(x), c)
    top = L.max(axis=-1)
    return (top - np.exp(-x) / (2.0 * tau),
            np.dot(np.exp(L - top[..., None]), zw))


def _log_q(M, S, x, tau, mu):
    """log q(x) from its z-integral e^M S and the density's z-free factors."""
    return (M + np.log(S) + mu * x
            - (mu * mu * tau / 2 + math.log(2.0 * math.pi * tau)))


def _z_integrals(x, z_win, tau, mu, kernel, what):
    """log q per x, all from the first z rule of _doubling, from _Z_NODES
    nodes, on which every z-integral agrees with the previous rule's to
    _REL_TOL of itself or, if its q is _DEEP e-folds under the largest,
    of e^-_DEEP that q.  There a value weighs nothing in an integral of
    q, and a piecewise F or G that jumps under it (the series/closed-form
    switch) may keep it moving; one rule for all keeps log q smooth in x."""
    shift = None

    def level(zn, zw):
        nonlocal shift
        M, S = _z_sums(x, *kernel(zn), zw, tau)
        shift = M if shift is None else shift
        return S * np.exp(M - shift)

    def agree(r, prev):
        log_q = _log_q(shift, r, x, tau, mu)
        deep = np.exp(np.clip(log_q.max() - log_q - _DEEP, 0.0, 700.0))
        return np.all(np.abs(r - prev) <= _REL_TOL * r * deep)

    r = _doubling(level, *z_win, _Z_NODES, what, agree)
    return _log_q(shift, r, x, tau, mu)


def _x_window(log_q, lo, hi, free, what):
    """(x_lo, x_hi, peak): on a 49-point scan, one step past the points
    where log q or log q + x is within _EFOLDS of its maximum, and log q's
    maximum.  A free end still inside moves out by the scan's width."""
    for _ in range(12):
        x = np.linspace(lo, hi, 49)
        lq = log_q(x)
        if not np.isfinite(lq).all():
            raise QuadratureError(f"{what}: non-finite value at {_Z_NODES} "
                                  f"nodes")
        near = (lq >= lq.max() - _EFOLDS) | (lq + x >= (lq + x).max() - _EFOLDS)
        i0, i1 = near.nonzero()[0][[0, -1]]
        grow_lo, grow_hi = free[0] and i0 == 0, free[1] and i1 == 48
        if not (grow_lo or grow_hi):
            return float(x[max(i0 - 1, 0)]), float(x[min(i1 + 1, 48)]), \
                float(lq.max())
        lo, hi = lo - grow_lo * (hi - lo), hi + grow_hi * (hi - lo)
    raise QuadratureError(f"{what}: no x window found")


@lru_cache(maxsize=1)
def _cheb_matrix():
    """Values at cos(pi j/_DEGREE) -> Chebyshev coefficients (a DCT-I)."""
    j = np.arange(_DEGREE + 1)
    D = np.cos(np.pi * np.outer(j, j) / _DEGREE) * (2.0 / _DEGREE)
    D[:, [0, -1]] *= 0.5
    D[[0, -1], :] *= 0.5
    return D


class Marginal:
    """The unnormalized density q(x) of x = log a at (tau, mu), on [lo, hi].

    A build serves x from scan[0] to scan[1], a free end unbounded, and
    takes its z window from that range; its x window is scanned from scan
    (an infinite end: the z window's mirror image, widened by half), a
    free end moving out.  log q is a Chebyshev interpolant, summed to its
    last coefficient above _CHOP; err, its largest trailing coefficient,
    bounds its relative error in q.  Each integral of q is a row
    int (a e^x + b) q dx: mass() (n(tau)) has (a, b) = (0, 1), mean()
    (1, 0), call(k) (1, -k) and put(k) (-1, k); prices() runs mass,
    calls and puts as one x integral."""

    def __init__(self, tau, mu, F_eval, G_eval, scan, free):
        self.tau, self.mu, self.F_eval, self.G_eval = tau, mu, F_eval, G_eval
        z_lo, z_hi = z_win = _z_window(
            tau, mu, F_eval, *np.where(free, (-np.inf, np.inf), scan))
        mid, half = -0.5 * (z_lo + z_hi), 0.75 * (z_hi - z_lo)
        scan = np.where(np.isinf(scan), (mid - half, mid + half), scan)
        what = (f"marginal of log a (tau={tau}, mu={mu}, x from "
                f"{scan[0]:.6g} to {scan[1]:.6g})")
        kernel = _z_kernel(tau, mu, F_eval, G_eval)
        zn, zw = gauss_legendre_nodes(*z_win, _Z_NODES)
        w, c = kernel(zn)

        def scan_log_q(x):
            return _log_q(*_z_sums(x, w, c, zw, tau), x, tau, mu)

        self.lo, self.hi, peak = _x_window(scan_log_q, *scan, free, what)
        self.coeffs, self.err = np.array([-np.inf]), 0.0
        if peak < _LOG_ZERO:            # a tail on which q underflows
            return
        x = 0.5 * (self.lo + self.hi + (self.hi - self.lo)
                   * np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE))
        coeffs = _cheb_matrix() @ _z_integrals(x, z_win, tau, mu, kernel,
                                               what)
        self.err = float(np.abs(coeffs[-3:]).max())
        if self.err > _CHEB_TOL:
            raise QuadratureError(f"{what}: Chebyshev tail {self.err:.2g} "
                                  f"exceeds {_CHEB_TOL}")
        self.coeffs = coeffs[:np.nonzero(np.abs(coeffs) > _CHOP)[0][-1] + 1]

    def log_q(self, x):
        """log q at x in the window, by Clenshaw's recurrence."""
        t2 = 2.0 * (2.0 * x - (self.lo + self.hi)) / (self.hi - self.lo)
        b1 = b2 = 0.0
        for c in self.coeffs[:0:-1]:
            b1, b2 = c + t2 * b1 - b2, b1
        return self.coeffs[0] + 0.5 * t2 * b1 - b2

    def _rows(self, a, b, lo, hi, what):
        """Per row, int (a e^x + b) q(x) dx over [lo, hi], on one _doubling
        run where each row keeps its own first converged level."""
        a, b, lo, hi = (np.asarray(v, dtype=float)[:, None]
                        for v in (a, b, lo, hi))
        return _doubling(
            lambda xn, xw: ((a * np.exp(xn) + b) * np.exp(self.log_q(xn))
                            * xw).sum(-1),
            lo, hi, _X_NODES, f"{what} (tau={self.tau}, mu={self.mu})")

    def mass(self) -> float:
        return float(self._rows([0.0], [1.0], [self.lo], [self.hi],
                                "mass integral")[0])

    def mean(self) -> float:
        return float(self._rows([1.0], [0.0], [self.lo], [self.hi],
                                "mean integral")[0])

    def call(self, k):
        return self._one_side(k, 1.0, "call")

    def put(self, k):
        return self._one_side(k, -1.0, "put")

    def _one_side(self, k, side, what):
        """Calls (side 1) or puts (side -1): a float, or an array of k's
        shape."""
        out = self.prices(_strikes(k, what), (side,))[1][0]
        return out.reshape(np.shape(k)) if np.ndim(k) else float(out[0])

    def prices(self, k, sides):
        """(mass, [values at the flat strikes k per side]), side 1 calls
        and -1 puts.  The mass and each strike the window holds are rows of
        one x run, from log k, clipped to the window, to its far edge; each
        other strike gets a tail build of its own."""
        log_k = np.log(k)
        start = np.clip(log_k, self.lo, self.hi)
        # log of the integrand's scale, e^x q for a call and q for a put,
        # unimodal: the window holds the option if it falls _OWN_EFOLDS
        # from its top on [start, far] to the far edge, else a tail is built
        x = np.append(np.linspace(self.lo, self.hi, 129), start)
        lq = self.log_q(x)
        rows, held = [([0.0], [1.0], [self.lo], [self.hi])], []
        for side in sides:
            size = lq + (x if side > 0 else 0.0)
            peak = np.argmax(size[:129])
            top = np.where(side * (start - x[peak]) <= 0, size[peak],
                           size[129:])
            own = top - size[128 if side > 0 else 0] >= _OWN_EFOLDS
            far = np.full(own.sum(), self.hi if side > 0 else self.lo)
            rows.append((np.full(far.size, side), -side * k[own],
                         *np.sort([start[own], far], axis=0)))
            held.append(own)
        vals = self._rows(*map(np.concatenate, zip(*rows)),
                          "mass and option integrals")
        out, at = [], 1
        for side, own in zip(sides, held):
            v = np.empty(k.size)
            v[own] = vals[at:at + own.sum()]
            at += own.sum()
            for i in np.nonzero(~own)[0]:
                v[i] = self._tail(log_k[i], k[i], side)
            out.append(v)
        return float(vals[0]), out

    def _tail(self, log_k, k, side):
        """A strike the window does not hold, on a build from log k out."""
        step = side * 0.25 * (self.hi - self.lo)
        tail = Marginal(self.tau, self.mu, self.F_eval, self.G_eval,
                        sorted((log_k, log_k + step)), (side < 0, side > 0))
        return tail._rows([side], [-side * k], [tail.lo], [tail.hi],
                          "option integral")[0]


def _strikes(k, what):
    """k as a flat array of floats, every one positive and finite."""
    flat = np.asarray(k, dtype=float).ravel()
    bad = ~(np.isfinite(flat) & (flat > 0))
    if bad.any():
        raise ValueError(f"non-finite or non-positive {what} strike: "
                         f"{flat[bad][0]}")
    return flat


def marginal(tau: float, mu: float, F_eval=None, G_eval=None) -> Marginal:
    """The marginal density of log a at (tau, mu): the build for every x."""
    _require_finite(mu=mu)
    _require_positive(tau=tau)
    F_eval, G_eval = _evaluators(F_eval, G_eval)
    return Marginal(tau, mu, F_eval, G_eval, (-np.inf, np.inf), (True, True))


# -- public operations -----------------------------------------------------------

def norm_factor(tau: float, mu: float, F_eval=None, G_eval=None) -> float:
    """n(tau) by a one-dimensional integral via scaled K_{-mu}: the
    independent reference for the marginal's mass, on no price path.

    n(tau) = 1/(pi tau) e^{-mu^2 tau/2}
             int G(rho) K_{-mu}(rho/tau) e^{-(F(rho)-pi^2/2)/tau} drho/rho,
    integrated in z = log rho with the Bessel factor exponentially scaled
    so the combined bracket F - pi^2/2 + rho stays nonnegative.  Each
    level takes K~_{-mu} at all its nodes in one batched bessel_k_scaled
    call.
    """
    _require_finite(mu=mu)
    _require_positive(tau=tau)
    F_eval, G_eval = _evaluators(F_eval, G_eval)

    def level(zn, zw):
        rho = np.exp(zn)
        Fv = np.asarray(F_eval(rho), dtype=float)
        Gv = np.asarray(G_eval(rho), dtype=float)
        kv = bessel_k_scaled(-mu, rho / tau)
        bracket = Fv - PI2_HALF + rho
        return float(np.dot(Gv * kv * np.exp(-bracket / tau), zw))

    val = _doubling(level, *_z_window(tau, mu, F_eval), 64,
                    f"normalization integral (tau={tau}, mu={mu})")
    return val * math.exp(-0.5 * mu * mu * tau) / (math.pi * tau)


def norm_direct(tau: float, mu: float, F_eval=None, G_eval=None) -> float:
    """n(tau) as the mass of the marginal density: the normalization of
    every price and of f0_density's default."""
    return marginal(tau, mu, F_eval, G_eval).mass()


def f0_density(a: float, t: float, mu: float, F_eval=None, G_eval=None,
               norm: Optional[float] = None) -> float:
    """Normalized leading density f0(a, t) of the time average w.r.t. da/a:
    q(log a), the marginal's z-integral on the window of the one x = log a,
    over norm (by default the marginal's mass, norm_direct)."""
    _require_finite(mu=mu)
    _require_positive(a=a, t=t)
    F_eval, G_eval = _evaluators(F_eval, G_eval)
    if norm is None:
        norm = norm_direct(t, mu, F_eval, G_eval)
    x = math.log(a)
    log_q = _z_integrals(x, _z_window(t, mu, F_eval, x, x), t, mu,
                         _z_kernel(t, mu, F_eval, G_eval),
                         f"density integral (a={a}, t={t}, mu={mu})")
    return math.exp(log_q) / norm


def reduced_mean(tau: float, mu: float, F_eval=None, G_eval=None) -> float:
    """Unnormalized mean of the time average under the leading density."""
    return marginal(tau, mu, F_eval, G_eval).mean()


def exact_mean(tau: float, mu: float) -> float:
    """Closed-form mean of the time average: (e^{(2mu+2)tau} - 1)/((2mu+2)tau)."""
    c = (2.0 * mu + 2.0) * tau
    return math.expm1(c) / c if c != 0 else 1.0


def price_call_reduced(k: float, tau: float, mu: float, F_eval=None,
                       G_eval=None) -> float:
    """Raw reduced Asian call c_A(k, tau) (benchmark-table convention)."""
    _strikes(k, "call")
    return marginal(tau, mu, F_eval, G_eval).call(k)


def price_put_reduced(k: float, tau: float, mu: float, F_eval=None,
                      G_eval=None) -> float:
    """Raw reduced Asian put p_A(k, tau)."""
    _strikes(k, "put")
    return marginal(tau, mu, F_eval, G_eval).put(k)


def price_scenario(s: Scenario, F_eval=None, G_eval=None,
                   with_put: bool = False) -> PriceResult:
    """Full scenario pricing: reduced values, normalization, dollar price."""
    return price_scenarios([s], F_eval, G_eval, with_put)[0]


def price_scenarios(scenarios, F_eval=None, G_eval=None,
                    with_put: bool = False):
    """Batch pricing, in order: per distinct (tau, mu), one marginal that
    prices the group's strikes together and whose mass is n(tau)."""
    F_eval, G_eval = _evaluators(F_eval, G_eval)
    groups = {}             # (tau, mu) -> [(position, scenario, k)]
    for i, s in enumerate(scenarios):
        rp = ReducedParams.from_scenario(s)
        groups.setdefault((rp.tau, rp.mu), []).append((i, s, rp.k))
    results = [None] * sum(map(len, groups.values()))
    for (tau, mu), members in groups.items():
        m = marginal(tau, mu, F_eval, G_eval)
        ks = _strikes([k for _, _, k in members], "call")
        n, vals = m.prices(ks, (1.0, -1.0) if with_put else (1.0,))
        puts = vals[1].tolist() if with_put else [None] * len(ks)
        for (i, s, _), c, p in zip(members, vals[0].tolist(), puts):
            disc = math.exp(-s.r * s.T) * s.S0
            results[i] = PriceResult(c, n, disc * c / n,
                                     None if p is None else disc * p / n, p)
    return results
