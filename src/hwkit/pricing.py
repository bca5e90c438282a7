"""Small-maturity joint density of the time-averaged gBM and Asian pricing.

The leading small-t joint density of (time average a, terminal value v)
of the standardized geometric Brownian motion is

    (1/(2 pi t)) v^mu e^{-mu^2 t/2} G(v/a) e^{-I(a,v)/t} da dv/(a v),

    I(a, v) = (1 + v^2)/(2a) + F(v/a) - pi^2/2,

with F, G the Hartman-Watson expansion functions.  Everything priced here
integrates this density.  Working variables are logarithmic throughout
(z = log rho for the ratio integral, u = log a inside), where the
exponent becomes -[F(e^z) - pi^2/2 + e^z cosh(u + z)]/t: a nonnegative
bracket, minimized at the density peak, so exp never overflows and a
running max-subtraction keeps the quadrature in range at t as small as
0.0025.  Integration windows are picked adaptively from the decay of that
bracket.
Every integral runs through one Gauss-Legendre node-doubling driver
(_doubling) with one fixed convergence policy: n doubles from a fixed
start (64 outer z-nodes for the 2-D core, whose inner u rule has half as
many, so 64x32 first; 64 for the 1-D integrals) at most 4 times until two
levels agree to 1e-9 relative, else QuadratureError.  A level whose value
is not finite raises QuadratureError at once.  The 4 levels cap the 2-D
core at a 512x256 (z, u) rule and the 1-D integrals at 512 nodes.  Every
integral here converges spectrally, at its second level on the benchmark
scenarios, so no caller tunes the policy.

Benchmark convention: the reduced call value c_A tabulated by the
standard seven test scenarios is the *unnormalized* integral (the
normalization n(tau), itself ~ 1 + O(tau), is tabulated separately), and
the dollar price applies it at the end:

    C_A(K, T) = e^{-rT} S0 c_A(k, tau) / n(tau).

price_call_reduced/price_put_reduced therefore return raw values and
PriceResult carries (c_reduced, norm, price).

The normalization has two independent routes -- a one-dimensional
integral against the modified Bessel function K_{-mu} (norm_factor) and
the plain two-dimensional density integral (norm_direct) -- which the
test-suite holds against each other at 1e-6.

Work that does not change between calls is done once.  Every integral
first probes F on one fixed grid of z = log rho to pick its window; the
probe values F(e^z) are cached per F evaluator, filled on first use and
held through a weak reference, so an evaluator's entry goes when the
evaluator does (a callable that cannot be hashed or weakly referenced is
probed afresh on each call).  The cache assumes F_eval is a pure
function of rho.  A batch (price_scenarios) computes n(tau) once per
distinct (tau, mu) and hands it to price_scenario through `norm=`, as a
density sweep does with f0_density; scenarios are priced serially.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import exact
from .bessel import bessel_k_scaled
from .evaluate import DEFAULT_DOMAIN, make_evaluator
from .quadrature import QuadratureError, gauss_legendre_nodes

PI2_HALF = exact.PI2_HALF

_LEVELS = 4           # node counts 64 to 512: the 2-D core at most 512x256
_REL_TOL = 1e-9       # agreement between two levels that ends an integral
PRICING_ORDER = 6  # series truncation used for the benchmark runs


def _require_finite(**values):
    """Raise ValueError naming every input that is NaN or infinite."""
    bad = [f"{name}={v}" for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise ValueError("non-finite input: " + ", ".join(bad))


@dataclass(frozen=True)
class Scenario:
    """Black-Scholes Asian call inputs (rates per year, sigma per sqrt-year)."""

    S0: float
    r: float
    sigma: float
    T: float
    K: float

    def __post_init__(self):
        _require_finite(S0=self.S0, r=self.r, sigma=self.sigma, T=self.T,
                        K=self.K)
        if min(self.S0, self.sigma, self.T, self.K) <= 0:
            raise ValueError("S0, sigma, T, K must be positive")


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
    norm: float               # n(tau)
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


# -- rate functions -------------------------------------------------------------

def rate_I(a: float, v: float, F_eval=None) -> float:
    """I(a, v) = (1 + v^2)/(2a) + F(v/a) - pi^2/2; zero at a = v = 1."""
    if a <= 0 or v <= 0:
        raise ValueError("rate_I needs a > 0 and v > 0")
    F = F_eval(v / a) if F_eval is not None else exact.F_exact(v / a)
    return (1.0 + v * v) / (2.0 * a) + float(F) - PI2_HALF


def rate_J_with_argmin(a: float, F_eval=None) -> tuple:
    """(inf_v I(a, v), argmin v), by bracketed minimization in log v.

    The infimum equals one quarter of the decay rate J_BS(a).
    """
    if a <= 0:
        raise ValueError("rate_J needs a > 0")
    from scipy.optimize import minimize_scalar
    x = math.log(a)

    def phi(s):
        return rate_I(a, math.exp(s), F_eval)

    res = minimize_scalar(phi, bounds=(x - 4.0, x + 4.0), method="bounded",
                          options={"xatol": 1e-10})
    if not res.success:
        raise RuntimeError(f"rate_J minimization failed at a={a}")
    return float(res.fun), math.exp(float(res.x))


def rate_J(a: float, F_eval=None) -> float:
    return rate_J_with_argmin(a, F_eval)[0]


def joint_density_leading(a: float, v: float, t: float, mu: float,
                          F_eval=None, G_eval=None) -> float:
    """Leading-order joint density of (average, terminal) w.r.t. da dv."""
    if min(a, v, t) <= 0:
        raise ValueError("need a, v, t > 0")
    G = G_eval(v / a) if G_eval is not None else exact.G_exact(v / a)
    I = rate_I(a, v, F_eval)
    log_dens = (mu * math.log(v) - 0.5 * mu * mu * t - I / t
                + math.log(float(G)) - math.log(2.0 * math.pi * t)
                - math.log(a) - math.log(v))
    return math.exp(log_dens) if log_dens > -700 else 0.0


# -- adaptive integration windows ------------------------------------------------

def _bracket_min_z(F_vals, z, ustar):
    """F(e^z) - pi^2/2 + e^z cosh(ustar + z), vectorized over z."""
    return F_vals - PI2_HALF + np.exp(z) * np.cosh(ustar + z)


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


def _z_window(tau, mu, ustar_fn, F_eval, pad=1.3):
    """[z_lo, z_hi] outside which the bracket exceeds its min by >> tau."""
    span = _PROBE_Z
    B = _bracket_min_z(_probe_F(F_eval), span, ustar_fn(span))
    B = np.where(np.isfinite(B), B, np.inf)
    bmin = float(B.min())
    if bmin == np.inf:
        raise QuadratureError(f"z-window probe (tau={tau}, mu={mu}): the "
                              f"bracket is not finite at any probe point")
    delta = tau * (46.0 + 8.0 * (1.0 + abs(mu)))
    inside = B <= bmin + delta
    idx = np.nonzero(inside)[0]
    z_lo, z_hi = span[idx[0]], span[idx[-1]]
    mid = span[int(np.argmin(B))]
    return (mid + pad * (z_lo - mid) - 0.02, mid + pad * (z_hi - mid) + 0.02)


_SIDES = np.array([[1.0], [-1.0]])      # _u_bounds' rows: upper, lower bound


def _ustar(z, payoff, log_k):
    """Per z node, the u that minimizes the inner exponent on the payoff's
    support: -z, clipped to u >= log k for a call and u <= log k for a
    put."""
    if payoff == "call":
        return np.maximum(log_k, -z)
    if payoff == "put":
        return np.minimum(log_k, -z)
    return -z


def _u_bounds(z, tau, mu, payoff, k):
    """Inner-integral windows [u_lo, u_hi] per z node (vectorized).

    The inner exponent is -e^z (cosh(u+z) - m)/tau below its per-z
    minimum m, reached at u*.  Each bound sits where that exponent has
    dropped by 56 + grow * a e-folds, a = |u - u*| its distance from u*
    and grow the payoff's polynomial growth on that side.  Both sides
    iterate together on a, as one (2, n) array:

        a <- arccosh(m + tau (56 + grow a) / e^z) - side (z + u*),

    six steps from a = 1; the windows are then widened 25% about u*.
    """
    log_k = math.log(k) if k > 0 else -math.inf
    ustar = _ustar(z, payoff, log_k)
    grow = np.array([[max(mu + 1.0, 0.0)
                      + (1.0 if payoff in ("call", "mean") else 0.0)],
                     [max(-mu, 0.0)]])
    c = tau / np.exp(z)
    base = np.cosh(ustar + z) + 56.0 * c
    slope = grow * c
    shift = _SIDES * (z + ustar)
    a = np.ones_like(shift)
    for _ in range(6):
        a = np.arccosh(base + slope * a) - shift
    u_lo = ustar - 1.25 * a[1]
    u_hi = ustar + 1.25 * a[0]
    if payoff == "call":
        u_lo = np.maximum(u_lo, log_k)
    elif payoff == "put":
        u_hi = np.minimum(u_hi, log_k)
        u_lo = np.minimum(u_lo, u_hi - 1e-12)
    return u_lo, u_hi


# -- core two-dimensional integral ----------------------------------------------

def _doubling(level, lo, hi, n0, what: str) -> float:
    """Gauss-Legendre node doubling on [lo, hi] for a one-level evaluator.

    level(zn, zw) returns the integral's value on one node set.  Starting
    at n0 nodes, n doubles up to _LEVELS times; the first value that
    agrees with the previous level to _REL_TOL is returned.  A value that
    is not finite raises at the level that produced it.
    """
    prev = None
    n = n0
    for _ in range(_LEVELS):
        val = level(*gauss_legendre_nodes(lo, hi, n))
        if not math.isfinite(val):
            raise QuadratureError(f"{what}: non-finite value at {n} nodes")
        if prev is not None and abs(val - prev) <= _REL_TOL * max(abs(val),
                                                                  1e-300):
            return val
        prev = val
        n *= 2
    raise QuadratureError(f"{what} did not converge in {_LEVELS} levels "
                          f"({n // 2} nodes)")


def _core_2d(tau, mu, k, payoff, F_eval, G_eval):
    """(1/(2 pi tau)) e^{-mu^2 tau/2} double integral of the weighted density.

    payoff in {"call", "put", "one", "mean"}; "one" integrates the bare
    density (normalization), "mean" weights by the average itself.

    The outer z rule starts at 64 nodes and the inner u rule on each z row
    has half as many (64x32, then 128x64, ...): on the u windows the
    integrand converges in about half the nodes the z axis needs.  Per
    point, E = e^u is the one exp taken before the density's own, since
    e^z cosh(u + z) = (e^{2z} E + 1/E)/2; the payoff (E - k, k - E, E or
    1) multiplies the density after its max-shifted exp.
    """
    log_k = math.log(k) if k > 0 else -math.inf

    def level(zn, zw):
        ez = np.exp(zn)
        Fv = np.asarray(F_eval(ez), dtype=float)
        Gv = np.asarray(G_eval(ez), dtype=float)
        u_lo, u_hi = _u_bounds(zn, tau, mu, payoff, k)
        xi, wxi = gauss_legendre_nodes(0.0, 1.0, len(zn) // 2)
        U = u_lo[:, None] + (u_hi - u_lo)[:, None] * xi[None, :]
        E = np.exp(U)
        bracket = (Fv - PI2_HALF)[:, None] + 0.5 * ((ez * ez)[:, None] * E
                                                    + 1.0 / E)
        L = -bracket / tau + (mu * zn + np.log(Gv))[:, None] + mu * U
        M = float(L.max())
        dens = np.exp(L - M)
        if payoff == "call":
            dens *= np.maximum(E - k, 0.0)
        elif payoff == "put":
            dens *= np.maximum(k - E, 0.0)
        elif payoff == "mean":
            dens *= E
        return math.exp(M) * float(np.dot(dens @ wxi, (u_hi - u_lo) * zw))

    z_lo, z_hi = _z_window(tau, mu, lambda z: _ustar(z, payoff, log_k), F_eval)
    val = _doubling(level, z_lo, z_hi, 64,
                    f"2-D pricing integral (tau={tau}, mu={mu}, k={k}, "
                    f"payoff={payoff})")
    return val * math.exp(-0.5 * mu * mu * tau) / (2.0 * math.pi * tau)


# -- public operations -----------------------------------------------------------

def norm_factor(tau: float, mu: float, F_eval=None, G_eval=None) -> float:
    """n(tau): one-dimensional normalization integral via scaled K_{-mu}.

    n(tau) = 1/(pi tau) e^{-mu^2 tau/2}
             int G(rho) K_{-mu}(rho/tau) e^{-(F(rho)-pi^2/2)/tau} drho/rho,
    integrated in z = log rho with the Bessel factor exponentially scaled
    so the combined bracket F - pi^2/2 + rho stays nonnegative.  Each
    level takes K~_{-mu} at all its nodes in one batched bessel_k_scaled
    call.
    """
    _require_finite(tau=tau, mu=mu)
    if tau <= 0:
        raise ValueError("norm_factor needs tau > 0")
    if F_eval is None or G_eval is None:
        F_eval, G_eval = default_evaluators()

    def level(zn, zw):
        rho = np.exp(zn)
        Fv = np.asarray(F_eval(rho), dtype=float)
        Gv = np.asarray(G_eval(rho), dtype=float)
        kv = bessel_k_scaled(-mu, rho / tau)
        bracket = Fv - PI2_HALF + rho
        return float(np.dot(Gv * kv * np.exp(-bracket / tau), zw))

    z_lo, z_hi = _z_window(tau, mu, lambda z: -z, F_eval)
    val = _doubling(level, z_lo, z_hi, 64,
                    f"normalization integral (tau={tau}, mu={mu})")
    return val * math.exp(-0.5 * mu * mu * tau) / (math.pi * tau)


def norm_direct(tau: float, mu: float, F_eval=None, G_eval=None) -> float:
    """n(tau) through the plain 2-D density integral (cross-check route)."""
    _require_finite(tau=tau, mu=mu)
    if F_eval is None or G_eval is None:
        F_eval, G_eval = default_evaluators()
    return _core_2d(tau, mu, 0.0, "one", F_eval, G_eval)


def f0_density(a: float, t: float, mu: float, F_eval=None, G_eval=None,
               norm: Optional[float] = None) -> float:
    """Normalized leading density f0(a, t) of the time average w.r.t. da/a."""
    _require_finite(a=a, t=t, mu=mu)
    if a <= 0 or t <= 0:
        raise ValueError("f0_density needs a > 0 and t > 0")
    if F_eval is None or G_eval is None:
        F_eval, G_eval = default_evaluators()
    if norm is None:
        norm = norm_factor(t, mu, F_eval, G_eval)
    x = math.log(a)

    def level(zn, zw):
        rho = np.exp(zn)
        Fv = np.asarray(F_eval(rho), dtype=float)
        Gv = np.asarray(G_eval(rho), dtype=float)
        bracket = Fv - PI2_HALF + rho * np.cosh(x + zn)
        L = -bracket / t + mu * zn + np.log(Gv)
        M = float(L.max())
        return math.exp(M) * float(np.dot(np.exp(L - M), zw))

    z_lo, z_hi = _z_window(t, mu, lambda z: np.full_like(z, x), F_eval, pad=1.4)
    val = _doubling(level, z_lo, z_hi, 64,
                    f"density integral (a={a}, t={t}, mu={mu})")
    return (val * math.exp(mu * x - 0.5 * mu * mu * t)
            / (2.0 * math.pi * t) / norm)


def reduced_mean(tau: float, mu: float, F_eval=None, G_eval=None) -> float:
    """Unnormalized mean of the time average under the leading density."""
    _require_finite(tau=tau, mu=mu)
    if F_eval is None or G_eval is None:
        F_eval, G_eval = default_evaluators()
    return _core_2d(tau, mu, 0.0, "mean", F_eval, G_eval)


def exact_mean(tau: float, mu: float) -> float:
    """Closed-form mean of the time average: (e^{(2mu+2)tau} - 1)/((2mu+2)tau)."""
    c = (2.0 * mu + 2.0) * tau
    return math.expm1(c) / c if c != 0 else 1.0


def price_call_reduced(k: float, tau: float, mu: float, F_eval=None,
                       G_eval=None) -> float:
    """Raw reduced Asian call c_A(k, tau) (benchmark-table convention)."""
    _require_finite(k=k, tau=tau, mu=mu)
    if k <= 0 or tau <= 0:
        raise ValueError("price_call_reduced needs k > 0 and tau > 0")
    if F_eval is None or G_eval is None:
        F_eval, G_eval = default_evaluators()
    return _core_2d(tau, mu, k, "call", F_eval, G_eval)


def price_put_reduced(k: float, tau: float, mu: float, F_eval=None,
                      G_eval=None) -> float:
    """Raw reduced Asian put p_A(k, tau)."""
    _require_finite(k=k, tau=tau, mu=mu)
    if k <= 0 or tau <= 0:
        raise ValueError("price_put_reduced needs k > 0 and tau > 0")
    if F_eval is None or G_eval is None:
        F_eval, G_eval = default_evaluators()
    return _core_2d(tau, mu, k, "put", F_eval, G_eval)


def price_scenario(s: Scenario, F_eval=None, G_eval=None,
                   with_put: bool = False,
                   norm: Optional[float] = None) -> PriceResult:
    """Full scenario pricing: reduced values, normalization, dollar price.

    `norm` is n(tau) at the scenario's (tau, mu) when the caller already
    has it; otherwise it is computed here.
    """
    if F_eval is None or G_eval is None:
        F_eval, G_eval = default_evaluators()
    rp = ReducedParams.from_scenario(s)
    if norm is None:
        norm = norm_factor(rp.tau, rp.mu, F_eval, G_eval)
    c_raw = price_call_reduced(rp.k, rp.tau, rp.mu, F_eval, G_eval)
    disc = math.exp(-s.r * s.T) * s.S0
    put_price = p_raw = None
    if with_put:
        p_raw = price_put_reduced(rp.k, rp.tau, rp.mu, F_eval, G_eval)
        put_price = disc * p_raw / norm
    return PriceResult(c_reduced=c_raw, norm=norm, price=disc * c_raw / norm,
                       put_price=put_price, p_reduced=p_raw)


def price_scenarios(scenarios, F_eval=None, G_eval=None,
                    with_put: bool = False):
    """Batch pricing, in order; n(tau) once per distinct (tau, mu)."""
    if F_eval is None or G_eval is None:
        F_eval, G_eval = default_evaluators()
    norms = {}
    results = []
    for s in scenarios:
        rp = ReducedParams.from_scenario(s)
        key = (rp.tau, rp.mu)
        if key not in norms:
            norms[key] = norm_factor(rp.tau, rp.mu, F_eval, G_eval)
        results.append(price_scenario(s, F_eval, G_eval, with_put,
                                      norm=norms[key]))
    return results
