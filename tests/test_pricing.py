"""Density, normalization, parity and benchmark-scenario pricing."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwkit import exact, pricing
from hwkit.evaluate import make_evaluator
from hwkit.exact import JBS_exact
from hwkit.pricing import (TABLE3_SCENARIOS, ReducedParams, Scenario,
                           exact_mean, f0_density, joint_density_leading,
                           marginal, norm_direct, norm_factor,
                           price_call_reduced, price_put_reduced,
                           price_scenario, price_scenarios, rate_I, rate_J,
                           rate_J_with_argmin, reduced_mean)
from hwkit.quadrature import QuadratureError, gauss_legendre_nodes

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
    # with no norm given, f0 is divided by the marginal's mass
    assert f0_density(1.1, t, mu, F40, G40) == f0_density(
        1.1, t, mu, F40, G40, norm=norm_direct(t, mu, F40, G40))
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
    F12, G12 = make_evaluator("F", 12), make_evaluator("G", 12)
    F6, G6 = evals_pricing
    for s in (TABLE3_SCENARIOS[0], TABLE3_SCENARIOS[6]):
        a = price_scenario(s, F6, G6).price
        b = price_scenario(s, F12, G12).price
        assert abs(a - b) < 5e-6


def _not_called(*args, **kwargs):
    raise AssertionError("a function this path must not call was called")


def test_table3_norm_is_the_pricing_marginals_mass(evals_pricing):
    # n(tau) of a price is the mass of the marginal that priced it; the
    # Bessel-K route is the independent reference
    F6, G6 = evals_pricing
    for s, res in zip(TABLE3_SCENARIOS,
                      price_scenarios(TABLE3_SCENARIOS, F6, G6)):
        rp = ReducedParams.from_scenario(s)
        assert res.norm == marginal(rp.tau, rp.mu, F6, G6).mass()
        assert abs(res.norm - norm_factor(rp.tau, rp.mu, F6, G6)) <= 1e-12


def test_batch_pricing_equals_per_scenario(evals_pricing, monkeypatch):
    # table3 scenarios 4-6 and two more strikes share one (tau, mu); the
    # last scenario has their tau with another mu
    F6, G6 = evals_pricing
    scenarios = (list(TABLE3_SCENARIOS[:6])
                 + [Scenario(2.0, 0.05, 0.50, 1.0, K) for K in (1.8, 2.2)]
                 + [Scenario(2.0, 0.10, 0.50, 1.0, 2.0)])
    single = [price_scenario(s, F6, G6, with_put=True) for s in scenarios]
    built = []

    def counting_marginal(tau, mu, *args, **kwargs):
        built.append((tau, mu))
        return marginal(tau, mu, *args, **kwargs)

    monkeypatch.setattr(pricing, "marginal", counting_marginal)
    monkeypatch.setattr(pricing, "norm_factor", _not_called)
    batch = price_scenarios(scenarios, F6, G6, with_put=True)
    assert batch == single              # every field, exactly
    assert all(r.put_price is not None for r in batch)
    assert len(built) == len(set(built)) == 5
    for res, row in zip(batch[:6], TABLE3_ROWS):
        assert res.price == pytest.approx(row[4], abs=2e-4)


_ONE_EVALUATOR_RUNS = {
    "norm_factor": lambda **ev: norm_factor(0.125, -0.6, **ev),
    "marginal": lambda **ev: marginal(0.125, -0.6, **ev).call(1.0),
    "f0_density": lambda **ev: f0_density(1.1, 0.125, -0.6, **ev, norm=1.0),
    "price_scenarios": lambda **ev: price_scenarios([TABLE3_SCENARIOS[6]],
                                                    **ev),
}


@pytest.mark.parametrize("missing", ["F_eval", "G_eval"])
@pytest.mark.parametrize("entry", sorted(_ONE_EVALUATOR_RUNS))
def test_a_given_evaluator_is_kept(entry, missing, evals40, monkeypatch):
    # only the missing evaluator takes its default (order 6), the one kept
    # from an earlier call; the one the caller passes is used
    F40, G40 = evals40
    F6, G6 = pricing._default_pair()
    run = _ONE_EVALUATOR_RUNS[entry]
    given = {"G_eval": G40} if missing == "F_eval" else {"F_eval": F40}
    full = {"F_eval": F6, "G_eval": G40} if missing == "F_eval" else {
        "F_eval": F40, "G_eval": G6}
    expected = run(**full)
    assert expected != run(F_eval=F6, G_eval=G6)
    got = pricing._evaluators(given.get("F_eval"), given.get("G_eval"))
    assert got[0] is full["F_eval"] and got[1] is full["G_eval"]
    monkeypatch.setattr(pricing, "make_evaluator", _not_called)
    assert run(**given) == expected


def test_default_evaluators_keep_their_probe(monkeypatch):
    # a second call with the defaults evaluates F on no probe grid: the
    # default F is kept, and with it its cache entry
    stored = []

    class Recording(weakref.WeakKeyDictionary):
        def __setitem__(self, key, value):
            stored.append(type(key))        # the key itself would keep it
            super().__setitem__(key, value)

    monkeypatch.setattr(pricing, "_probe_cache", Recording())
    first = f0_density(1.1, 0.0625, -0.6, norm=1.0)
    assert len(stored) == 1
    gc.collect()
    assert f0_density(1.1, 0.0625, -0.6, norm=1.0) == first
    assert len(stored) == 1


def test_node_sequence_of_each_integral(evals_pricing, monkeypatch):
    # one doubling driver.  A marginal build takes its z rule at 128 nodes
    # for the x-window scan, then 128 and 256 for its Chebyshev values;
    # each option or moment integral over x then starts at 32, and a
    # batch runs its mass, calls and puts as one such x integral.  The 1-D
    # normalization integral starts at 64, and f0, the marginal's
    # z-integral at one x, at 128; all of these converge at their second
    # level at this scenario
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
            "mean": lambda: reduced_mean(rp.tau, rp.mu, F6, G6),
            "batch": lambda: price_scenarios([TABLE3_SCENARIOS[4]], F6, G6,
                                             with_put=True)}
    build = [128, 128, 256]
    expect = {"call": build + [32, 64], "put": build + [32, 64],
              "norm": [64, 128], "f0": [128, 256],
              "one": build + [32, 64], "mean": build + [32, 64],
              "batch": build + [32, 64]}
    for name, run in runs.items():
        sizes.clear()
        run()
        assert sizes == expect[name], name


def test_batched_prices_equal_the_one_sided_runs(evals_pricing):
    # one x run for the mass, the calls and the puts gives the bits of the
    # mass, call and put runs on their own, far strikes' tails included
    F6, G6 = evals_pricing
    m = marginal(0.0025, 3.0, F6, G6)
    ks = np.concatenate([np.linspace(0.8, 1.2, 17), [0.55, 1.8]])
    mass, (c, p) = m.prices(ks, (1.0, -1.0))
    assert mass == m.mass()
    assert np.array_equal(c, m.call(ks))
    assert np.array_equal(p, m.put(ks))


def test_doubling_raises_after_its_levels():
    # a step at an interior point: Gauss-Legendre converges only
    # algebraically, so 1e-9 is out of reach in the driver's four levels
    sizes = []

    def level(zn, zw):
        sizes.append(len(zn))
        return float(np.dot(zn > 1.0 / 3.0, zw))

    with pytest.raises(QuadratureError,
                       match=r"step integral did not converge in 4 levels"):
        pricing._doubling(level, 0.0, 1.0, 16, "step integral")
    assert sizes == [16, 32, 64, 128]


def _nan_like(rho):
    return np.full_like(np.asarray(rho, dtype=float), np.nan)


def test_nan_density_fails_at_first_level(evals_pricing, monkeypatch):
    # a G that returns NaN makes the x-window scan, on the first 128-node
    # z rule, non-finite; the build raises there instead of doubling
    F6 = evals_pricing[0]
    sizes = []

    def recording(a, b, n):
        sizes.append(n)
        return gauss_legendre_nodes(a, b, n)

    monkeypatch.setattr(pricing, "gauss_legendre_nodes", recording)
    with pytest.raises(QuadratureError, match=r"non-finite value at 128 nodes"):
        price_call_reduced(1.0, 0.0625, -0.6, F6, _nan_like)
    assert sizes == [128]


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


def _z_sums_cosh(x, zn, zw, tau, mu, F_eval, G_eval):
    """The z-sums in their cosh form: per x, (M, S) with e^M S the
    z-integral of G(e^z) e^{mu z} e^{-[F(e^z) - pi^2/2 + e^z cosh(x + z)]/tau}
    on the rule (zn, zw), M the row's largest exponent."""
    rho = np.exp(zn)
    bracket = (np.asarray(F_eval(rho), dtype=float) - pricing.PI2_HALF
               + rho * np.cosh(np.add.outer(x, zn)))
    L = -bracket / tau + mu * zn + np.log(np.asarray(G_eval(rho), dtype=float))
    M = L.max(axis=-1)
    return M, np.dot(np.exp(L - M[..., None]), zw)


def test_separable_kernel_matches_the_cosh_form(evals_pricing, monkeypatch):
    # log of the z-sum on each build's 128- and 256-node z rules, over its
    # x window and its scan: every build of a batch at table3's (tau, mu),
    # with the ladder's lowest and highest strikes at three of them, which
    # builds put tails at (0.0025, 3).  Each build works out its z window
    # once
    F6, G6 = evals_pricing
    builds, windows = [], []
    z_window = pricing._z_window

    def recording_window(*args):
        windows.append(z_window(*args))
        return windows[-1]

    class Recording(pricing.Marginal):
        def __init__(self, tau, mu, F_eval, G_eval, scan, free):
            before = len(windows)
            super().__init__(tau, mu, F_eval, G_eval, scan, free)
            assert len(windows) == before + 1
            builds.append((self, windows[-1], scan, free))

    monkeypatch.setattr(pricing, "_z_window", recording_window)
    monkeypatch.setattr(pricing, "Marginal", Recording)
    scenarios = list(TABLE3_SCENARIOS) + [
        Scenario(s.S0, s.r, s.sigma, s.T, K)
        for s in TABLE3_SCENARIOS[0:5:2] for K in (1.6, 2.4)]
    price_scenarios(scenarios, F6, G6, with_put=True)
    first = ReducedParams.from_scenario(TABLE3_SCENARIOS[0])
    assert any((m.tau, m.mu, free) == (first.tau, first.mu, (True, False))
               for m, _, _, free in builds)
    assert len({(m.tau, m.mu) for m, _, _, _ in builds}) == 5
    assert len(windows) == len(builds)
    for m, z_win, scan, _ in builds:
        # a centre build scans from its z window's mirror image, widened
        mid, half = -0.5 * (z_win[0] + z_win[1]), 0.75 * (z_win[1] - z_win[0])
        scan = np.where(np.isinf(scan), (mid - half, mid + half), scan)
        x = np.linspace(min(m.lo, scan[0]), max(m.hi, scan[1]), 97)
        for n in (128, 256):
            zn, zw = gauss_legendre_nodes(*z_win, n)
            kernel = pricing._z_kernel(m.tau, m.mu, F6, G6)
            M, S = pricing._z_sums(x, *kernel(zn), zw, m.tau)
            M0, S0 = _z_sums_cosh(x, zn, zw, m.tau, m.mu, F6, G6)
            err = np.abs(M + np.log(S) - M0 - np.log(S0)).max()
            assert err <= 1e-12, (m.tau, m.mu, scan, n, err)


def _oracle_2d(tau, mu, k, payoff, F_eval, G_eval, n=384):
    """The (z, u) density integral in its cosh-bracket, log-payoff form on
    one n x n rule.  z runs over the z window of the payoff's support
    in u = log a; u runs, per z node, where cosh(u + z) stays within
    80 tau e^{-z} of its value at u*, the u minimizing the exponent on
    the support, clipped to the support."""
    log_k = math.log(k) if k > 0 else -math.inf
    ustar = {"call": lambda z: np.maximum(log_k, -z),
             "put": lambda z: np.minimum(log_k, -z)}.get(payoff, lambda z: -z)
    support = {"call": (log_k, math.inf),
               "put": (-math.inf, log_k)}.get(payoff, ())
    z_lo, z_hi = pricing._z_window(tau, mu, F_eval, *support)
    zn, zw = gauss_legendre_nodes(z_lo, z_hi, n)
    reach = np.arccosh(np.cosh(ustar(zn) + zn) + 80.0 * tau / np.exp(zn))
    u_lo, u_hi = -zn - reach, -zn + reach
    if payoff == "call":
        u_lo = np.maximum(u_lo, log_k)
    elif payoff == "put":
        u_hi = np.minimum(u_hi, log_k)
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
    # the pricing core, the marginal density of log a, against the 2-D
    # (z, u) integral of the joint density
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


@pytest.mark.parametrize("tau, mu, k, payoff, outside", [
    (0.0025, 3.0, 1.8, "call", True), (0.0025, 3.0, 0.55, "put", True),
    (0.0025, -0.9, 2.5, "call", True), (0.0225, 3.0, 9.0, "call", True),
    (0.125, -0.6, 0.06, "put", True), (0.0025, 3.0, 1.6, "call", False),
    (0.0025, -0.9, 0.6, "put", False), (0.125, 3.0, 45.0, "call", False),
    (0.125, -0.6, 200.0, "call", True), (0.0225, -0.6, 200.0, "call", True),
    (0.0225, 3.0, 200.0, "call", True), (0.0225, -0.9, 62.98, "call", True),
    (0.0025, 3.0, 10.25, "call", True), (0.125, -0.6, 0.01, "put", True),
    (0.0225, 3.0, 0.05, "put", True)])
def test_strikes_near_or_past_the_window_edge_match_the_oracle(
        evals_pricing, tau, mu, k, payoff, outside):
    # the out-of-the-money side starts past the window's edge, or too
    # close to it for the window to hold its integral: its own tail build
    # prices it, tiny but not zero.  The tails at k = 45 and 200 reach z
    # where the order-6 F and G switch from series to closed form and
    # jump.  The last six lie between 1e-80 and 1e-255; the four calls
    # among them hold only on a z window centred on the tail's own x
    # range, as the centre build's window misses the z that carry them
    F6, G6 = evals_pricing
    m = marginal(tau, mu, F6, G6)
    assert (not m.lo <= math.log(k) <= m.hi) == outside
    got = m.call(k) if payoff == "call" else m.put(k)
    want = _oracle_2d(tau, mu, k, payoff, F6, G6)
    assert 0.0 < want < 1e-9
    assert abs(got / want - 1.0) < 1e-9, (got, want)


def test_in_the_money_strikes_by_the_near_edge_build_no_tail(evals_pricing,
                                                             monkeypatch):
    # the window holds the whole integrand of a strike 1% inside its near
    # edge, so the shared interpolant prices it
    F6, G6 = evals_pricing

    def no_tail(*args):
        raise AssertionError("a tail was built")

    for tau, mu in ((0.0025, 3.0), (0.125, -0.6)):
        m = marginal(tau, mu, F6, G6)
        monkeypatch.setattr(pricing, "Marginal", no_tail)
        step = 0.01 * (m.hi - m.lo)
        for payoff, k in (("call", math.exp(m.lo + step)),
                          ("put", math.exp(m.hi - step))):
            got = m.call(k) if payoff == "call" else m.put(k)
            want = _oracle_2d(tau, mu, k, payoff, F6, G6)
            assert abs(got / want - 1.0) < 1e-11, (tau, mu, payoff, got, want)
        monkeypatch.undo()


def test_strike_values_do_not_depend_on_the_batch(evals_pricing):
    # a shuffled batch, a partial one and single strikes give the same
    # bits; the ladder's range plus two strikes past the window's edges
    F6, G6 = evals_pricing
    m = marginal(0.0025, 3.0, F6, G6)
    ks = np.concatenate([np.linspace(0.8, 1.2, 15), [0.55, 1.8]])
    perm = np.random.default_rng(5).permutation(len(ks))
    for price in (m.call, m.put):
        whole = price(ks)
        assert np.array_equal(price(ks[perm]), whole[perm])
        assert np.array_equal(price(ks[3:9]), whole[3:9])
        assert [price(float(k)) for k in ks] == whole.tolist()
    scenarios = [Scenario(2.0, 0.05, 0.50, 1.0, K) for K in (1.7, 2.0, 2.3)]
    scenarios += [Scenario(2.0, 0.02, 0.10, 1.0, K) for K in (1.6, 2.0, 3.6)]
    batch = price_scenarios(scenarios, F6, G6, with_put=True)
    order = [4, 0, 5, 2, 3, 1]
    shuffled = price_scenarios([scenarios[i] for i in order], F6, G6,
                               with_put=True)
    assert shuffled == [batch[i] for i in order]
    assert price_scenarios(scenarios[3:5], F6, G6, with_put=True) == batch[3:5]


def test_chebyshev_tail_over_its_bound_raises(evals_pricing, monkeypatch):
    monkeypatch.setattr(pricing, "_CHEB_TOL", 1e-18)
    with pytest.raises(QuadratureError, match="Chebyshev tail"):
        marginal(0.0625, -0.6, *evals_pricing)


def test_doubling_keeps_each_rows_first_converged_level():
    # row 0 agrees from the second level, row 1 only from the fourth
    sizes = []

    def level(xn, xw):
        sizes.append(xn.shape)
        n = xn.shape[1]
        return np.array([1.0, 1.0 + 1e3 * 2.0 ** (-n)]) + 1e-12 * n

    got = pricing._doubling(level, np.zeros((2, 1)), np.ones((2, 1)), 16,
                            "two rows")
    assert sizes == [(2, 16), (2, 32), (2, 64), (2, 128)]
    assert got[0] == 1.0 + 1e-12 * 32
    assert got[1] == 1.0 + 1e3 * 2.0 ** -128 + 1e-12 * 128


_STRIKES = 17


@settings(deadline=None, max_examples=25)
@given(tau=st.floats(0.0025, 0.125), mu=st.floats(-0.9, 3.0),
       jitter=st.lists(st.floats(0.0, 1.0), min_size=_STRIKES,
                       max_size=_STRIKES))
def test_marginal_prices_are_consistent(evals_pricing, tau, mu, jitter):
    # 17 strikes in [0.7, 1.4], one per equal cell, jittered inside its
    # middle half so slope differences stay far above the value error
    F6, G6 = evals_pricing
    ks = 0.7 + (np.arange(_STRIKES) + 0.25 + 0.5 * np.array(jitter)) * (
        0.7 / _STRIKES)
    m = marginal(tau, mu, F6, G6)
    c, p = m.call(ks), m.put(ks)
    mass, mean = m.mass(), m.mean()
    tol = 1e-9 * max(c.max(), p.max())
    assert np.all(np.diff(c) <= tol) and np.all(np.diff(p) >= -tol)
    for vals in (c, p):
        slopes = np.diff(vals) / np.diff(ks)
        assert np.all(np.diff(slopes) >= -1e-6)
    assert np.all((0.0 <= c) & (c <= mean)) and np.all(p >= 0.0)
    assert abs(mass / norm_factor(tau, mu, F6, G6) - 1.0) <= 1e-9
    assert np.abs(c - p - (mean - ks * mass)).max() <= 1e-9 * mean


_ORDER_6_REGRESSION = pytest.mark.xfail(
    strict=True, raises=QuadratureError,
    reason="order-6 F and G jump at their series/closed-form switch and "
           "log q is not resolved: a Chebyshev tail of 1.2e-10 at tau 0.25, "
           "no convergence in 4 levels at 0.5 (ROADMAP item 4)")


@pytest.mark.parametrize("tau", [
    0.225,
    pytest.param(0.25, marks=_ORDER_6_REGRESSION),
    pytest.param(0.5, marks=_ORDER_6_REGRESSION)])
def test_order_6_prices_above_tau_one_eighth(evals_pricing, tau):
    # the mass of the pricing marginal against the Bessel-K reference,
    # and put-call parity on that marginal, at mu = -0.6
    F6, G6 = evals_pricing
    ks = np.array([0.7, 0.9, 1.0, 1.1, 1.4])
    m = marginal(tau, -0.6, F6, G6)
    c, p = m.call(ks), m.put(ks)
    mass, mean = m.mass(), m.mean()
    assert abs(mass / norm_factor(tau, -0.6, F6, G6) - 1.0) <= 1e-9
    assert np.abs(c - p - (mean - ks * mass)).max() <= 1e-12 * mean


_FAR_X_BAND = pytest.mark.xfail(
    strict=True, raises=QuadratureError,
    reason="far in x (log a near 7.5 here, about 6.6-9.1 at (0.125, -0.6)) "
           "the z integrand sits on the order-6 F and G's series/closed-form "
           "jump at rho = 0.04, and its z rules do not converge in 4 levels "
           "(ROADMAP items 3 and 6)")
_FAR_X_RUNS = {
    "f0": lambda **ev: f0_density(math.exp(7.5), 0.0225, 3.0, **ev),
    "call": lambda **ev: price_call_reduced(1608.4, 0.0225, 3.0, **ev)}


@pytest.mark.parametrize("evaluators", [
    pytest.param("order 6", marks=_FAR_X_BAND), "closed forms"])
@pytest.mark.parametrize("run", sorted(_FAR_X_RUNS))
def test_far_x_band(evals_pricing, run, evaluators):
    # f0 at x = 7.5 and the call at k = 1608.4 (log k = 7.38) at
    # (0.0225, 3): the closed forms, smooth across rho = 0.04, give
    # 4.2e-212 and 3.6e-207
    ev = {"order 6": evals_pricing,
          "closed forms": (exact.F_exact, exact.G_exact)}[evaluators]
    value = _FAR_X_RUNS[run](F_eval=ev[0], G_eval=ev[1])
    assert 1e-215 < value < 1e-200


def test_tiny_sigma_ends_in_typed_error_without_warning():
    # sigma = 0.01: tau = 2.5e-5, mu = 999.  The marginal's z-integrals
    # run out of levels, without an overflow warning on the way
    failure = (r"marginal of log a \(tau=2\.5e-05, mu=999\.0, .*\) did not "
               r"converge in 4 levels \(1024 nodes\)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=failure):
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
    x_ranges = ((), (log_k, math.inf), (-math.inf, log_k), (log_k, log_k))
    for tau, mu in ((0.0025, 3.0), (0.0625, -0.6)):
        for x_range in x_ranges:
            uncached = pricing._z_window(tau, mu, _Unhashable(F), *x_range)
            assert pricing._z_window(tau, mu, F, *x_range) == uncached
            assert pricing._z_window(tau, mu, F, *x_range) == uncached
    probe = pricing._probe_cache[F]
    assert np.array_equal(probe, F(np.exp(pricing._PROBE_Z)))
    assert not probe.flags.writeable


def test_probe_cache_does_not_grow_with_fresh_wrappers(evals_pricing):
    F6 = evals_pricing[0]
    pricing._z_window(0.01, 0.0, F6)
    size = len(pricing._probe_cache)
    for _ in range(5):
        wrapper = lambda rho: F6(rho)  # noqa: E731 -- a new callable each pass
        pricing._z_window(0.01, 0.0, wrapper)
        assert len(pricing._probe_cache) == size + 1
        del wrapper
        gc.collect()
        assert len(pricing._probe_cache) == size
    pricing._z_window(0.01, 0.0, _Unhashable(F6))
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
