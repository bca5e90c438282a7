"""Acceptance criteria, one test per criterion, each printing a status line.

Criterion 3 checks that the exact coefficients of each family grow at the
rate 1/R of its convergence radius R.  Every family follows the transfer
law a_n ~ A n^{-p} R^{-n} (oscillating factor) of `hwkit.asympt`, so the
raw root test |a_n|^{1/n} carries a factor (|A| n^{-p})^{1/n}, which
tends to 1 only like (p log n)/n.  At n in [80, 100] that factor alone
puts the raw median 5.0% (c), 5.0% (d), 9.2% (dJ, dF) and 4.6% (dG)
below 1/R; `tests/test_asympt.py` pins those raw offsets.  The criterion
therefore applies the root test to |a_n| n^p.  By Cauchy-Hadamard,
limsup |a_n n^p|^{1/n} = limsup |a_n|^{1/n} because n^{p/n} -> 1, so the
radius it measures is the same; only the slow (p log n)/n term is gone.
The amplitude A is not divided out, so the check stays independent of
the amplitudes that criterion 2 and the epsilon clause pin.  The
corrected medians sit +2.4% (c), +2.5% (d), +3.1% (dJ, dF) and -0.6% (dG)
from 1/R, inside the 5% bound; the rest is the O(log|A| / n) amplitude
factor, which shrinks as the window moves up.
"""

import json
import math
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

import hwkit.tables as tables_mod
from hwkit.asympt import (DAMPING, asymptotic_constants, diagnostic_epsilon,
                          exact_family_floats, trig_factor)
from hwkit.exact import F_exact, G_exact, JBS_exact, critical_points, \
    singularity_distance
from hwkit.evaluate import make_evaluator
from hwkit.hartman import theta_asympt, theta_hw, theta_hw_stability
from hwkit.pricing import (SPECTRAL_BENCHMARKS, TABLE3_SCENARIOS, ReducedParams,
                           default_evaluators, exact_mean, f0_density,
                           norm_direct, norm_factor, price_call_reduced,
                           price_put_reduced, price_scenarios, rate_I, rate_J,
                           reduced_mean)
from hwkit.quadrature import gauss_legendre_nodes
from hwkit.rational import rat


def report(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.2f} s) {detail}")


# -- criterion 1: exact coefficient tables ----------------------------------------

F_TABLE = ["-1", "1", "2/15", "19/525", "22/2625", "4742/3031875",
           "43636/197071875", "146287/6897515625", "68146/57984609375",
           "6740719066/38598324999609375"]
G_TABLE = ["1", "-1/5", "-1/70", "1/1050", "299/323400", "96917/525525000",
           "-107749/10032750000", "-27333619/1876124250000",
           "-308907281743/109790791110000000",
           "1589498602063/4940585599950000000",
           "28340195926465733/103406456606953500000000"]


def test_criterion_1_exact_coefficients():
    t0 = time.time()
    # one run through the actual CLI in a fresh process (end-to-end timing)
    proc = subprocess.run(
        [sys.executable, "-m", "hwkit.cli", "--format", "series",
         "coeffs", "F", "10"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    cli_vals = [rat(ln.split()[1])
                for ln in proc.stdout.strip().splitlines()[1:]]
    assert cli_vals == [rat(0)] + [rat(s) for s in F_TABLE]

    # remaining families in-process, from a cold table cache
    tables_mod._cache.clear()
    assert list(tables_mod.coeffs_F(10).coeffs[1:]) == [rat(s) for s in F_TABLE]
    assert list(tables_mod.coeffs_G(10).coeffs) == [rat(s) for s in G_TABLE]
    assert list(tables_mod.coeffs_h(3).coeffs) == \
        [rat(s) for s in ("0", "6", "-9/5", "144/175")]
    assert list(tables_mod.coeffs_h_log(4).coeffs) == \
        [rat(s) for s in ("0", "6", "6/5", "4/175", "-2/175")]
    assert list(tables_mod.coeffs_jbs(4, "omega").coeffs) == \
        [rat(s) for s in ("0", "0", "3/2", "-9/5", "333/175")]
    assert list(tables_mod.coeffs_jbs(4, "log").coeffs) == \
        [rat(s) for s in ("0", "0", "3/2", "-3/10", "109/1400")]
    elapsed = time.time() - t0
    report(1, elapsed < 5.0, f"40 exact rational values matched", elapsed)
    assert elapsed < 5.0


# -- criterion 2: constants --------------------------------------------------------

ETA_PRINTED = [4.4934, 7.7252, 10.9041, 14.0662, 17.2208]
Z_PRINTED = [-20.19, -59.68, -118.90, -197.86, -296.55]
OMEGA_PRINTED = [-0.2172, 0.1284, -0.0913, 0.0709, -0.0580]


def test_criterion_2_constants():
    t0 = time.time()
    table = critical_points(5)
    for i in range(5):
        assert abs(table.eta[i] - ETA_PRINTED[i]) < 1.1e-4
        assert abs(table.z[i] - Z_PRINTED[i]) < 1.1e-2
        assert abs(table.omega[i] - OMEGA_PRINTED[i]) < 1.1e-4
    # six significant figures for the singularity geometry
    assert f"{table.rho_x:.6g}" == "3.49295"
    assert f"{table.theta_x:.6g}" == "2.02317"
    # five significant figures for the transfer amplitudes
    ac = asymptotic_constants()
    for val, printed in ((ac.c_inf, -8.48671), (ac.d_inf, -13.4011),
                         (ac.d_J, -23.4048), (ac.d_F, -23.4047),
                         (ac.d_G, 0.719253)):
        assert f"{val:.5g}" == f"{printed:.5g}", (val, printed)
    elapsed = time.time() - t0
    report(2, elapsed < 5.0, "table + 5 amplitudes at 5 significant figures",
           elapsed)
    assert elapsed < 5.0


# -- criterion 3: transfer-law convergence -----------------------------------------

def test_criterion_3_transfer_convergence():
    t0 = time.time()
    tables_mod._cache.clear()  # charge the big-rational work to this test
    table = critical_points(1)
    limits = {"c": 1.0 / (1.0 - table.omega[0]), "d": 1.0 / table.rho_x,
              "dJ": 1.0 / table.rho_x, "dF": 1.0 / table.rho_x,
              "dG": 1.0 / table.rho_x}
    failures = []
    devs = []
    for family, lim in limits.items():
        vals = exact_family_floats(family, 100)
        p = DAMPING[family]
        raw = statistics.median(abs(vals[n]) ** (1.0 / n)
                                for n in range(80, 101)) / lim - 1.0
        dev = statistics.median((abs(vals[n]) * n ** p) ** (1.0 / n)
                                for n in range(80, 101)) / lim - 1.0
        devs.append(f"{family} {raw:+.4f}/{dev:+.4f}")
        if abs(dev) >= 0.05:
            failures.append(f"{family}: corrected root-test median off by "
                            f"{dev:+.4f} (raw {raw:+.4f})")
        rows = diagnostic_epsilon(family, 100)
        tail = [abs(e) for n, _, _, e, tf in rows
                if 90 <= n <= 100 and abs(tf) > 0.3]
        if max(tail) >= 0.25:
            failures.append(f"{family}: eps tail {max(tail):.3f}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    report(3, ok, "root test raw/corrected dev: " + ", ".join(devs) + "; "
           + ("; ".join(failures) or "eps bounds hold"), elapsed)
    assert elapsed < 60.0
    assert not failures, (
        "median of |a_n n^p|^{1/n} over n in [80, 100] must lie within 5% "
        "of 1/R, and |eps_n| < 0.25 where |trig| > 0.3 at n in [90, 100]: "
        + "; ".join(failures))


# -- criterion 4: the documented outlier --------------------------------------------

def test_criterion_4_outlier_reproduction():
    t0 = time.time()
    rows = dict((r[0], r) for r in diagnostic_epsilon("dJ", 97))
    _, _, _, eps, tf = rows[97]
    table = critical_points(1)
    assert abs(tf) < 0.1
    assert abs(tf - math.cos(table.theta_x * (97 - 1.5))) < 1e-12
    assert abs(eps) > 3.0
    elapsed = time.time() - t0
    report(4, True, f"|eps_J_97| = {abs(eps):.2f} with |cos| = {abs(tf):.4f}",
           elapsed)


# -- criterion 5: oracle equivalence -------------------------------------------------

def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    dom = (math.exp(-2.0), math.exp(2.0))  # N = 40 holds 1e-10 inside |log| <= 2
    F40 = make_evaluator("F", 40, dom)
    G40 = make_evaluator("G", 40, dom)
    J40 = make_evaluator("JBS", 40, dom)
    worst_F = worst_G = 0.0
    for rho in np.geomspace(0.05, 20.0, 200):
        rho = float(rho)
        worst_F = max(worst_F, abs(F40(rho) - F_exact(rho)))
        worst_G = max(worst_G, abs(G40(rho) - G_exact(rho)))
    assert worst_F < 1e-10 and worst_G < 1e-10
    worst_J = max(abs(J40(float(x)) - JBS_exact(float(x)))
                  for x in np.geomspace(0.2, 5.0, 200))
    assert worst_J < 1e-10
    worst_rate = max(abs(rate_J(float(a), F40) - JBS_exact(float(a)) / 4.0)
                     for a in np.linspace(0.5, 2.0, 31))
    assert worst_rate < 1e-8
    elapsed = time.time() - t0
    report(5, True, f"max|F|={worst_F:.1e} max|G|={worst_G:.1e} "
                    f"max|J|={worst_J:.1e} max|rate|={worst_rate:.1e}", elapsed)


# -- criterion 6: benchmark pricing ---------------------------------------------------

PRINTED_CA = (0.055954, 0.218388, 0.172269, 0.193174, 0.246415, 0.306220,
              0.350093)
PRINTED_N = (1.00004, 1.00032, 1.00045, 1.00089, 1.00089, 1.00089, 1.00177)


def test_criterion_6_pricing():
    t0 = time.time()
    results = price_scenarios(list(TABLE3_SCENARIOS))
    worst_abs = worst_n = worst_spec = 0.0
    for res, ca, nn, spec in zip(results, PRINTED_CA, PRINTED_N,
                                 SPECTRAL_BENCHMARKS):
        worst_abs = max(worst_abs, abs(res.price - ca))
        worst_n = max(worst_n, abs(res.norm - nn))
        worst_spec = max(worst_spec, abs(res.price / spec - 1.0))
    assert worst_abs < 2e-4
    assert worst_n < 5e-5
    assert worst_spec < 1e-3
    elapsed = time.time() - t0
    report(6, elapsed < 120.0,
           f"max|C_A-ref|={worst_abs:.1e} max|n-ref|={worst_n:.1e} "
           f"max spectral rel={worst_spec:.1e}", elapsed)
    assert elapsed < 120.0


# -- criterion 7: density properties ---------------------------------------------------

def test_criterion_7_density_properties():
    t0 = time.time()
    dom = (math.exp(-2.0), math.exp(2.0))
    F40 = make_evaluator("F", 40, dom)
    G40 = make_evaluator("G", 40, dom)
    pairs = [(ReducedParams.from_scenario(s).tau,
              ReducedParams.from_scenario(s).mu) for s in TABLE3_SCENARIOS]

    # normalization: integrate f0 over da/a on a wide log grid
    worst_norm = 0.0
    for tau, mu in pairs:
        n_val = norm_factor(tau, mu, F40, G40)
        half = 16.0 * math.sqrt(tau) + 4.0 * tau * abs(mu + 1.0)
        x, w = gauss_legendre_nodes(-half, half, 320)
        f0 = np.array([f0_density(float(math.exp(xx)), tau, mu, F40, G40,
                                  norm=n_val) for xx in x])
        worst_norm = max(worst_norm, abs(float(np.dot(f0, w)) - 1.0))
    assert worst_norm < 1e-6

    # mean identity against the closed form
    worst_mean = 0.0
    for tau, mu in pairs:
        m = reduced_mean(tau, mu, F40, G40) / norm_direct(tau, mu, F40, G40)
        worst_mean = max(worst_mean, abs(m / exact_mean(tau, mu) - 1.0))
    assert worst_mean < 2e-3

    # put-call parity from one shared density
    worst_par = 0.0
    for tau, mu, k in ((0.0025, 3.0, 1.0), (0.0625, -0.6, 1.0526315789),
                       (0.125, -0.6, 1.0)):
        c = price_call_reduced(k, tau, mu, F40, G40)
        p = price_put_reduced(k, tau, mu, F40, G40)
        nd = norm_direct(tau, mu, F40, G40)
        mean = reduced_mean(tau, mu, F40, G40)
        worst_par = max(worst_par, abs((c - p) / nd - (mean / nd - k)))
    assert worst_par < 1e-6

    # log-coordinate Hessian of the rate I at the center
    def I(x, y):
        return rate_I(math.exp(x), math.exp(y), F40)

    def hessian(h):
        hxx = (I(h, 0) - 2 * I(0, 0) + I(-h, 0)) / h / h
        hyy = (I(0, h) - 2 * I(0, 0) + I(0, -h)) / h / h
        hxy = (I(h, h) - I(h, -h) - I(-h, h) + I(-h, -h)) / (4 * h * h)
        return np.array([[hxx, hxy], [hxy, hyy]])

    H = (4.0 * hessian(0.01) - hessian(0.02)) / 3.0
    hess_err = float(np.abs(H - np.array([[3.0, -3.0], [-3.0, 4.0]])).max())
    assert hess_err < 1e-6
    elapsed = time.time() - t0
    report(7, True, f"norm={worst_norm:.1e} mean={worst_mean:.1e} "
                    f"parity={worst_par:.1e} hessian={hess_err:.1e}", elapsed)


# -- criterion 8: theta consistency ------------------------------------------------------

def test_criterion_8_theta_consistency():
    t0 = time.time()
    gaps = []
    for t in (0.5, 0.3, 0.2):
        hw = theta_hw(1.0 / t, t)
        asy = theta_asympt(1.0, t)
        gaps.append(abs(hw / asy - 1.0))
    assert gaps[-1] < 0.25
    assert gaps[0] > gaps[1] > gaps[2]
    # double-precision node doubling breaks down at small t
    for t in (0.05, 0.04):
        st = theta_hw_stability(1.0 / t, t)
        assert not st["converged"]
    st_ok = theta_hw_stability(2.0, 0.5)
    assert st_ok["converged"]
    elapsed = time.time() - t0
    report(8, True, f"gaps at t=0.5/0.3/0.2: "
                    f"{gaps[0]:.4f}/{gaps[1]:.4f}/{gaps[2]:.4f}; "
                    "instability flagged at t <= 0.05", elapsed)
