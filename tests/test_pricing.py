"""Density, normalization, parity and benchmark-scenario pricing."""

import gc
import math
import warnings

import numpy as np
import pytest

from hwkit import pricing
from hwkit.exact import JBS_exact
from hwkit.pricing import (TABLE3_SCENARIOS, ReducedParams, Scenario,
                           exact_mean, f0_density, joint_density_leading,
                           norm_direct, norm_factor, price_call_reduced,
                           price_put_reduced, price_scenario, price_scenarios,
                           rate_I, rate_J, rate_J_with_argmin, reduced_mean)
from hwkit.quadrature import (QuadratureError, QuadratureSpec,
                              gauss_legendre_nodes)

# printed benchmark rows: (mu, tau, c_A, n_tau, C_A)
TABLE3_ROWS = [
    (3.0, 0.0025, 0.028543, 1.00004, 0.055954),
    (3.0, 0.0225, 0.130771, 1.00032, 0.218388),
    (-0.6, 0.03125, 0.088354, 1.00045, 0.172269),
    (-0.6, 0.0625, 0.106978, 1.00089, 0.193174),
    (-0.6, 0.0625, 0.12964, 1.00089, 0.246415),
    (-0.6, 0.0625, 0.153432, 1.00089, 0.306220),
    (-0.6, 0.125, 0.193799, 1.00177, 0.350093),
]


def test_reduced_params():
    rp = ReducedParams.from_scenario(TABLE3_SCENARIOS[0])
    assert rp.tau == pytest.approx(0.0025)
    assert rp.mu == pytest.approx(3.0)
    assert rp.k == pytest.approx(1.0)
    rp4 = ReducedParams.from_scenario(TABLE3_SCENARIOS[3])
    assert rp4.mu == pytest.approx(-0.6)
    assert rp4.k == pytest.approx(2.0 / 1.9)


def test_rate_I_vanishes_at_center(evals40):
    F40, _ = evals40
    assert rate_I(1.0, 1.0, F40) == pytest.approx(0.0, abs=1e-15)
    assert rate_I(1.2, 1.1, F40) > 0.0


def test_rate_I_log_hessian(evals40):
    # Richardson-extrapolated central differences of I(e^x, e^y) at (0,0)
    F40, _ = evals40

    def I(x, y):
        return rate_I(math.exp(x), math.exp(y), F40)

    def hessian(h):
        hxx = (I(h, 0) - 2 * I(0, 0) + I(-h, 0)) / h / h
        hyy = (I(0, h) - 2 * I(0, 0) + I(0, -h)) / h / h
        hxy = (I(h, h) - I(h, -h) - I(-h, h) + I(-h, -h)) / (4 * h * h)
        return np.array([[hxx, hxy], [hxy, hyy]])

    H = (4.0 * hessian(0.01) - hessian(0.02)) / 3.0
    expect = np.array([[3.0, -3.0], [-3.0, 4.0]])
    assert np.abs(H - expect).max() < 1e-6
    assert abs(np.linalg.det(H) - 3.0) < 1e-5


def test_rate_J_equals_quarter_decay_rate(evals40):
    F40, _ = evals40
    for a in np.linspace(0.5, 2.0, 16):
        a = float(a)
        assert abs(rate_J(a, F40) - JBS_exact(a) / 4.0) < 1e-8


def test_rate_J_minimizer_interior(evals40):
    F40, _ = evals40
    for a in (0.5, 1.0, 1.5, 2.0):
        _, vstar = rate_J_with_argmin(a, F40)
        assert 0.0 < vstar < math.inf
        assert 0.05 < vstar < 20.0


def test_rate_J_at_one(evals40):
    F40, _ = evals40
    assert rate_J(1.0, F40) < 1e-12


def test_joint_density_peak_near_center(evals40):
    F40, G40 = evals40
    t, mu = 0.01, 0.0
    grid = np.exp(np.linspace(-0.5, 0.5, 21))
    best, best_av = -1.0, None
    for a in grid:
        for v in grid:
            d = joint_density_leading(float(a), float(v), t, mu, F40, G40)
            if d > best:
                best, best_av = d, (float(a), float(v))
    assert abs(math.log(best_av[0])) < 0.06
    assert abs(math.log(best_av[1])) < 0.06


def test_joint_density_lognormal_limit(evals40):
    # ratio to the bivariate log-normal with sigma_x = 2 sqrt(t/3),
    # sigma_y = sqrt(t), corr = sqrt(3)/2 tends to 1 at the center
    F40, G40 = evals40
    t, mu = 0.004, 0.7
    sx, sy, corr = 2.0 * math.sqrt(t / 3.0), math.sqrt(t), math.sqrt(3.0) / 2.0

    def lognormal(a, v):
        x, y = math.log(a), math.log(v)
        q = (x / sx) ** 2 - 2 * corr * x * y / (sx * sy) + (y / sy) ** 2
        dens = math.exp(-q / (2 * (1 - corr ** 2))) / (
            2 * math.pi * sx * sy * math.sqrt(1 - corr ** 2))
        return dens * v ** mu * math.exp(-0.5 * mu * mu * t) / (a * v)

    ratios = []
    for eps in (0.05, 0.02, 0.01):
        a, v = math.exp(eps), math.exp(-eps)
        ratios.append(joint_density_leading(a, v, t, mu, F40, G40)
                      / lognormal(a, v))
    assert abs(ratios[-1] - 1.0) < 0.02
    assert abs(ratios[2] - 1.0) < abs(ratios[0] - 1.0)


def test_norm_factor_printed_values(evals_pricing):
    F6, G6 = evals_pricing
    assert norm_factor(0.0025, 3.0, F6, G6) == pytest.approx(1.00004, abs=5e-6)
    assert norm_factor(0.125, -0.6, F6, G6) == pytest.approx(1.00177, abs=5e-6)


def test_norm_trend_to_one(evals_pricing):
    F6, G6 = evals_pricing
    taus = sorted({ReducedParams.from_scenario(s).tau for s in TABLE3_SCENARIOS})
    mus = {ReducedParams.from_scenario(s).tau: ReducedParams.from_scenario(s).mu
           for s in TABLE3_SCENARIOS}
    vals = [norm_factor(t, mus[t], F6, G6) for t in taus]
    assert all(v > 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))  # grows with tau
    assert vals[0] - 1.0 < 1e-4  # -> 1 as tau -> 0


def test_norm_two_routes_agree(evals40):
    F40, G40 = evals40
    for tau, mu in ((0.0025, 3.0), (0.0625, -0.6), (0.125, -0.6)):
        nb = norm_factor(tau, mu, F40, G40)
        nd = norm_direct(tau, mu, F40, G40)
        assert abs(nd / nb - 1.0) < 1e-7


def test_f0_normalization_and_shape(evals40):
    # integrate the normalized density over log a by direct quadrature
    F40, G40 = evals40
    t, mu = 0.0225, 3.0
    norm = norm_factor(t, mu, F40, G40)
    half_width = 16.0 * math.sqrt(t)
    x, w = gauss_legendre_nodes(-half_width, half_width + 4.0 * t, 400)
    f0 = np.array([f0_density(float(math.exp(xx)), t, mu, F40, G40, norm=norm)
                   for xx in x])
    total = float(np.dot(f0, w))
    assert abs(total - 1.0) < 1e-6
    # unimodal near a = 1 for small t, mu = 0
    t2 = 0.01
    norm2 = norm_factor(t2, 0.0, F40, G40)
    grid = np.exp(np.linspace(-0.4, 0.4, 41))
    vals = [f0_density(float(a), t2, 0.0, F40, G40, norm=norm2) for a in grid]
    peak = int(np.argmax(vals))
    assert abs(math.log(grid[peak])) < 0.05
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(peak))
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(peak, len(vals) - 1))


def test_mean_identity(evals40):
    F40, G40 = evals40
    for tau, mu in ((0.0025, 3.0), (0.03125, -0.6), (0.125, -0.6)):
        m = reduced_mean(tau, mu, F40, G40) / norm_direct(tau, mu, F40, G40)
        assert abs(m / exact_mean(tau, mu) - 1.0) < 2e-3


def test_put_call_parity(evals40):
    F40, G40 = evals40
    for tau, mu, k in ((0.0625, -0.6, 1.0), (0.0225, 3.0, 1.2),
                       (0.125, -0.6, 0.8)):
        c = price_call_reduced(k, tau, mu, F40, G40)
        p = price_put_reduced(k, tau, mu, F40, G40)
        nd = norm_direct(tau, mu, F40, G40)
        mean = reduced_mean(tau, mu, F40, G40)
        assert abs((c - p) / nd - (mean / nd - k)) < 1e-6


def test_scenario2_full_digits(evals_pricing):
    F6, G6 = evals_pricing
    res = price_scenario(TABLE3_SCENARIOS[1], F6, G6)
    assert res.c_reduced == pytest.approx(0.130771, abs=2e-6)
    assert res.norm == pytest.approx(1.00032, abs=5e-6)
    assert res.price == pytest.approx(0.218388, abs=2e-6)


def test_scenario7_full_digits(evals_pricing):
    F6, G6 = evals_pricing
    res = price_scenario(TABLE3_SCENARIOS[6], F6, G6, with_put=True)
    assert res.price == pytest.approx(0.350093, abs=3e-6)
    assert res.put_price is not None and res.put_price > 0.0


def test_price_monotone_in_spot(evals_pricing):
    F6, G6 = evals_pricing
    results = [price_scenario(s, F6, G6) for s in TABLE3_SCENARIOS[3:6]]
    prices = [r.price for r in results]
    assert prices[0] < prices[1] < prices[2]


def test_deep_otm_decay_and_rate_slope(evals40):
    F40, G40 = evals40
    tau, mu = 0.01, 0.5
    ks = [1.2, 1.4, 1.6, 1.8]
    vals = [price_call_reduced(k, tau, mu, F40, G40) for k in ks]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # difference form of log c ~ -J(k)/tau (quarter decay rate)
    lhs = tau * (math.log(vals[1]) - math.log(vals[3]))
    rhs = JBS_exact(1.8) / 4.0 - JBS_exact(1.4) / 4.0
    assert abs(lhs / rhs - 1.0) < 0.25


def test_order_insensitivity_of_prices(evals_pricing):
    # adding series terms beyond the benchmark order moves prices by at
    # most ~1.5e-6 (largest-tau scenario), invisible at the tabulated
    # 6-decimal granularity
    from hwkit.evaluate import make_evaluator
    F12, G12 = make_evaluator("F", 12), make_evaluator("G", 12)
    F6, G6 = evals_pricing
    for s in (TABLE3_SCENARIOS[0], TABLE3_SCENARIOS[6]):
        a = price_scenario(s, F6, G6).price
        b = price_scenario(s, F12, G12).price
        assert abs(a - b) < 5e-6


def test_batch_pricing_equals_per_scenario(evals_pricing, monkeypatch):
    # table3 scenarios 4-6 and two more strikes share one (tau, mu); the
    # last scenario has their tau with another mu
    F6, G6 = evals_pricing
    scenarios = (list(TABLE3_SCENARIOS[:6])
                 + [Scenario(2.0, 0.05, 0.50, 1.0, K) for K in (1.8, 2.2)]
                 + [Scenario(2.0, 0.10, 0.50, 1.0, 2.0)])
    single = [price_scenario(s, F6, G6, with_put=True) for s in scenarios]
    norm_args = []

    def counting_norm_factor(tau, mu, *args, **kwargs):
        norm_args.append((tau, mu))
        return norm_factor(tau, mu, *args, **kwargs)

    monkeypatch.setattr(pricing, "norm_factor", counting_norm_factor)
    batch = price_scenarios(scenarios, F6, G6, with_put=True)
    assert batch == single              # every field, exactly
    assert all(r.put_price is not None for r in batch)
    assert len(norm_args) == len(set(norm_args)) == 5
    for res, row in zip(batch[:6], TABLE3_ROWS):
        assert res.price == pytest.approx(row[4], abs=2e-4)


def test_node_sequence_of_each_integral(evals_pricing, monkeypatch):
    # one doubling driver: the 2-D core starts at 64 outer z nodes, each
    # followed by an inner u rule of half that size; the 1-D integrals
    # start at 64.  Call, put, norm and f0 converge at their second level;
    # the bare density ("one") and the mean at this scenario at their third
    F6, G6 = evals_pricing
    rp = ReducedParams.from_scenario(TABLE3_SCENARIOS[4])
    sizes = []

    def recording(a, b, n):
        sizes.append(n)
        return gauss_legendre_nodes(a, b, n)

    monkeypatch.setattr(pricing, "gauss_legendre_nodes", recording)
    runs = {"call": lambda: price_call_reduced(rp.k, rp.tau, rp.mu, F6, G6),
            "put": lambda: price_put_reduced(rp.k, rp.tau, rp.mu, F6, G6),
            "norm": lambda: norm_factor(rp.tau, rp.mu, F6, G6),
            "f0": lambda: f0_density(1.1, rp.tau, rp.mu, F6, G6, norm=1.0),
            "one": lambda: norm_direct(rp.tau, rp.mu, F6, G6),
            "mean": lambda: reduced_mean(rp.tau, rp.mu, F6, G6)}
    expect = {"call": [64, 32, 128, 64], "put": [64, 32, 128, 64],
              "norm": [64, 128], "f0": [64, 128],
              "one": [64, 32, 128, 64, 256, 128],
              "mean": [64, 32, 128, 64, 256, 128]}
    for name, run in runs.items():
        sizes.clear()
        run()
        assert sizes == expect[name], name


def test_doubling_raises_after_its_levels():
    # a step at an interior point: Gauss-Legendre converges only
    # algebraically, so 1e-9 is out of reach in three levels
    sizes = []

    def level(zn, zw):
        sizes.append(len(zn))
        return float(np.dot(zn > 1.0 / 3.0, zw))

    quad = QuadratureSpec(levels=3, target_rel_err=1e-9)
    with pytest.raises(QuadratureError,
                       match=r"step integral did not converge in 3 levels"):
        pricing._doubling(level, 0.0, 1.0, 16, quad, "step integral")
    assert sizes == [16, 32, 64]


def _nan_like(rho):
    return np.full_like(np.asarray(rho, dtype=float), np.nan)


def test_nan_density_fails_at_first_level(evals_pricing, monkeypatch):
    # a G that returns NaN makes the first 64x32 level non-finite; the
    # driver raises there instead of doubling to its cap
    F6 = evals_pricing[0]
    sizes = []

    def recording(a, b, n):
        sizes.append(n)
        return gauss_legendre_nodes(a, b, n)

    monkeypatch.setattr(pricing, "gauss_legendre_nodes", recording)
    with pytest.raises(QuadratureError, match=r"non-finite value at 64 nodes"):
        price_call_reduced(1.0, 0.0625, -0.6, F6, _nan_like)
    assert sizes == [64, 32]


def test_nan_rate_function_raises_typed_error(evals_pricing):
    # a NaN F leaves the z-window probe no finite point to centre on
    G6 = evals_pricing[1]
    runs = (lambda: price_call_reduced(1.0, 0.0625, -0.6, _nan_like, G6),
            lambda: price_put_reduced(1.0, 0.0625, -0.6, _nan_like, G6),
            lambda: norm_factor(0.0625, -0.6, _nan_like, G6),
            lambda: norm_direct(0.0625, -0.6, _nan_like, G6),
            lambda: f0_density(1.1, 0.0625, -0.6, _nan_like, G6, norm=1.0))
    for run in runs:
        with pytest.raises(QuadratureError, match="not finite at any probe"):
            run()


def _oracle_2d(tau, mu, k, payoff, F_eval, G_eval, n=384):
    """The 2-D core in its cosh-bracket, log-payoff form on one n x n rule,
    over the windows the core itself uses."""
    log_k = math.log(k) if k > 0 else -math.inf
    ustar = {"call": lambda z: np.maximum(log_k, -z),
             "put": lambda z: np.minimum(log_k, -z)}.get(payoff, lambda z: -z)
    z_lo, z_hi = pricing._z_window(tau, mu, ustar, F_eval)
    zn, zw = gauss_legendre_nodes(z_lo, z_hi, n)
    u_lo, u_hi = pricing._u_bounds(zn, tau, mu, payoff, k)
    xi, wxi = gauss_legendre_nodes(0.0, 1.0, n)
    U = u_lo[:, None] + (u_hi - u_lo)[:, None] * xi[None, :]
    WU = (u_hi - u_lo)[:, None] * wxi[None, :]
    log_pay = {"call": lambda: np.log(np.maximum(np.exp(U) - k, 1e-300)),
               "put": lambda: np.log(np.maximum(k - np.exp(U), 1e-300)),
               "mean": lambda: U,
               "one": lambda: np.zeros_like(U)}[payoff]()
    bracket = (F_eval(np.exp(zn))[:, None] - pricing.PI2_HALF
               + np.exp(zn)[:, None] * np.cosh(U + zn[:, None]))
    L = (-bracket / tau + mu * zn[:, None] + mu * U
         + np.log(G_eval(np.exp(zn)))[:, None] + log_pay)
    M = float(L.max())
    val = math.exp(M) * float(np.einsum("ij,ij,i->", np.exp(L - M), WU, zw))
    return val * math.exp(-0.5 * mu * mu * tau) / (2.0 * math.pi * tau)


@pytest.mark.parametrize("scenario", [0, 2, 4])
def test_core_matches_log_form_oracle(evals_pricing, scenario):
    F6, G6 = evals_pricing
    rp = ReducedParams.from_scenario(TABLE3_SCENARIOS[scenario])
    runs = [("mean", 0.0, reduced_mean(rp.tau, rp.mu, F6, G6)),
            ("one", 0.0, norm_direct(rp.tau, rp.mu, F6, G6))]
    for k in (0.8 * rp.k, rp.k, 1.2 * rp.k):
        runs += [("call", k, price_call_reduced(k, rp.tau, rp.mu, F6, G6)),
                 ("put", k, price_put_reduced(k, rp.tau, rp.mu, F6, G6))]
    for payoff, k, got in runs:
        want = _oracle_2d(rp.tau, rp.mu, k, payoff, F6, G6)
        assert abs(got / want - 1.0) < 1e-11, (payoff, k, got, want)


def _u_bounds_two_loops(z, tau, mu, payoff, k):
    """The u windows as solved before the sides were batched: one loop per
    side, iterating on u itself."""
    ez = np.exp(z)
    log_k = math.log(k) if k > 0 else -math.inf
    if payoff == "call":
        ustar = np.maximum(log_k, -z)
    elif payoff == "put":
        ustar = np.minimum(log_k, -z)
    else:
        ustar = -z
    m = np.cosh(ustar + z)
    grow_r = max(mu + 1.0, 0.0) + (1.0 if payoff in ("call", "mean") else 0.0)
    grow_l = max(-mu, 0.0)

    def solve(side):
        grow = grow_r if side > 0 else grow_l
        u = ustar + side * 1.0
        for _ in range(6):
            need = tau * (56.0 + grow * np.abs(u - ustar)) / ez
            u = -z + side * np.arccosh(m + need)
        return u

    u_hi = solve(+1.0)
    u_lo = solve(-1.0)
    u_lo = ustar + 1.25 * (u_lo - ustar)
    u_hi = ustar + 1.25 * (u_hi - ustar)
    if payoff == "call":
        u_lo = np.maximum(u_lo, log_k)
    elif payoff == "put":
        u_hi = np.minimum(u_hi, log_k)
        u_lo = np.minimum(u_lo, u_hi - 1e-12)
    return u_lo, u_hi


def test_u_bounds_match_two_loop_oracle(evals_pricing, monkeypatch):
    # every z rule of every call, put, one and mean integral at the table3
    # (tau, mu) (the strike ladder's are among them), with table3's
    # strikes and the ladder's ends 1.6 and 2.4
    F6, G6 = evals_pricing
    solve = pricing._u_bounds
    checked = []

    def compared(z, tau, mu, payoff, k):
        got = solve(z, tau, mu, payoff, k)
        want = _u_bounds_two_loops(z, tau, mu, payoff, k)
        where = (tau, mu, payoff, k)
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=0.0, atol=1e-13), where
        checked.append(payoff)
        return got

    monkeypatch.setattr(pricing, "_u_bounds", compared)
    params = {(rp.tau, rp.mu): set() for rp in
              map(ReducedParams.from_scenario, TABLE3_SCENARIOS)}
    for s in TABLE3_SCENARIOS:
        rp = ReducedParams.from_scenario(s)
        params[rp.tau, rp.mu].update((rp.k, 1.6 / s.S0, 2.4 / s.S0))
    for (tau, mu), strikes in params.items():
        for k in sorted(strikes):
            price_call_reduced(k, tau, mu, F6, G6)
            price_put_reduced(k, tau, mu, F6, G6)
        norm_direct(tau, mu, F6, G6)
        reduced_mean(tau, mu, F6, G6)
    assert set(checked) == {"call", "put", "one", "mean"}


def test_tiny_sigma_ends_in_typed_error_without_warning():
    # sigma = 0.01: tau = 2.5e-5, mu = 999.  K_{-999} is now computed
    # without overflow; the normalization then runs out of levels
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="normalization integral"):
            price_scenario(Scenario(2.0, 0.05, 0.01, 1.0, 2.0))


class _Unhashable:
    """A callable the probe cache cannot key on."""

    __hash__ = None

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, rho):
        return self.fn(rho)


@pytest.mark.parametrize("kind", ["order 6", "order 40", "plain callable"])
def test_z_window_same_with_and_without_probe_cache(evals_pricing, evals40,
                                                     kind):
    F6 = evals_pricing[0]
    F = {"order 6": F6, "order 40": evals40[0],
         "plain callable": lambda rho: np.exp(-rho) + F6(rho)}[kind]
    log_k = math.log(1.1)
    ustars = (lambda z: -z, lambda z: np.maximum(log_k, -z),
              lambda z: np.minimum(log_k, -z))
    for tau, mu in ((0.0025, 3.0), (0.0625, -0.6)):
        for ustar in ustars:
            uncached = pricing._z_window(tau, mu, ustar, _Unhashable(F))
            assert pricing._z_window(tau, mu, ustar, F) == uncached
            assert pricing._z_window(tau, mu, ustar, F) == uncached
    probe = pricing._probe_cache[F]
    assert np.array_equal(probe, F(np.exp(pricing._PROBE_Z)))
    assert not probe.flags.writeable


def test_probe_cache_does_not_grow_with_fresh_wrappers(evals_pricing):
    F6 = evals_pricing[0]
    pricing._z_window(0.01, 0.0, lambda z: -z, F6)
    size = len(pricing._probe_cache)
    for _ in range(5):
        wrapper = lambda rho: F6(rho)  # noqa: E731 -- a new callable each pass
        pricing._z_window(0.01, 0.0, lambda z: -z, wrapper)
        assert len(pricing._probe_cache) == size + 1
        del wrapper
        gc.collect()
        assert len(pricing._probe_cache) == size
    pricing._z_window(0.01, 0.0, lambda z: -z, _Unhashable(F6))
    assert len(pricing._probe_cache) == size


def _no_integral(*args, **kwargs):
    raise AssertionError("an integral started before input validation")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected_before_any_integral(bad, monkeypatch):
    monkeypatch.setattr(pricing, "gauss_legendre_nodes", _no_integral)
    monkeypatch.setattr(pricing, "_z_window", _no_integral)
    evals = {"F_eval": _no_integral, "G_eval": _no_integral}
    for i in range(5):
        args = [2.0, 0.05, 0.5, 1.0, 2.0]
        args[i] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Scenario(*args)
    for i in range(3):
        args = [0.01, 0.0, 1.0]
        args[i] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ReducedParams(*args)
        k, tau, mu = args[2], args[0], args[1]
        for fn in (price_call_reduced, price_put_reduced):
            with pytest.raises(ValueError, match="non-finite"):
                fn(k, tau, mu, **evals)
        with pytest.raises(ValueError, match="non-finite"):
            f0_density(k, tau, mu, **evals, norm=1.0)
    for tau, mu in ((bad, 0.0), (0.01, bad)):
        for fn in (norm_factor, norm_direct, reduced_mean):
            with pytest.raises(ValueError, match="non-finite"):
                fn(tau, mu, **evals)


def test_reduced_params_overflow_rejected():
    # r finite but 2r/sigma^2 overflows; sigma^2 underflows to zero
    with pytest.raises(ValueError, match="non-finite"):
        price_scenario(Scenario(2.0, 1e307, 0.01, 1.0, 2.0),
                       _no_integral, _no_integral)
    with pytest.raises(ValueError, match="underflows"):
        ReducedParams.from_scenario(Scenario(2.0, 0.05, 1e-200, 1.0, 2.0))


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(0.0, 0.05, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        price_call_reduced(-1.0, 0.1, 0.0)
