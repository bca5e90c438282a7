"""Root solvers, the critical-point table, and the closed-form evaluators."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hwkit import roots
from hwkit.exact import (PI2_HALF, SERIES_GUARD, F_exact, G_exact, JBS_exact,
                         critical_points, singularity_distance)
from hwkit.roots import (RootSolveError, solve_kappa, solve_lambda, solve_tan_eta,
                         solve_xi, solve_zeta)
from hwkit.tables import coeffs_F, coeffs_G, coeffs_jbs

# printed reference values of the first five critical points
ETA_PRINTED = [4.4934, 7.7252, 10.9041, 14.0662, 17.2208]
Z_PRINTED = [-20.19, -59.68, -118.90, -197.86, -296.55]
OMEGA_PRINTED = [-0.2172, 0.1284, -0.0913, 0.0709, -0.0580]
LOGDIST_PRINTED = [3.4929, 2.0528, 3.9494, 2.6463, 4.2402]


def horner(coeffs, y):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


# -- solvers ----------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.9999, 0.9, 0.5, 0.1, 1e-3, 1e-8])
def test_kappa_residual(rho):
    kappa = solve_kappa(rho)
    if kappa < 30:
        assert abs(rho * math.sinh(kappa) / kappa - 1.0) < 1e-12
    else:  # scaled (log-domain) residual
        resid = (math.log(rho) + kappa
                 + math.log1p(-math.exp(-2 * kappa)) - math.log(2 * kappa))
        assert abs(resid) < 1e-12


def test_kappa_vanishes_at_one():
    # kappa ~ sqrt(6 (1/rho - 1)) as rho -> 1-
    assert solve_kappa(1 - 1e-12) < 1e-5


@pytest.mark.parametrize("rho", [1.0001, 1.5, 2.0, 10.0, 1e3])
def test_lambda_residual(rho):
    lam = solve_lambda(rho)
    assert 0.0 < lam < math.pi
    assert abs(lam + rho * math.sin(lam) - math.pi) < 1e-12


def test_lambda_limits():
    assert math.pi - solve_lambda(1 + 1e-9) < 1e-4
    lam = solve_lambda(1e6)
    assert abs(lam * (1 + 1e6) / math.pi - 1.0) < 1e-9


@pytest.mark.parametrize("rho", [1.0001, 1.5, 2.0, math.e ** 8, 1e6])
def test_lambda_is_pi_minus_zeta_of_inverse(rho):
    # lambda is the solved variable, so the mirror identity is exact in
    # this direction: zeta(x) = pi - lambda(1/x)
    x = 1.0 / rho
    assert solve_zeta(x) == math.pi - solve_lambda(1.0 / x)


def test_xi_zeta_at_one():
    assert solve_xi(1.0) == 0.0
    assert solve_zeta(1.0) == 0.0


def test_zeta_small_x_limit():
    assert solve_zeta(1e-9) > math.pi - 1e-6


@pytest.mark.parametrize("x", [1.001, 2.0, 10.0, 1e4])
def test_xi_residual(x):
    xi = solve_xi(x)
    assert abs(math.sinh(xi) / xi - x) < 1e-12 * x


@pytest.mark.parametrize("x", [0.999, 0.5, 0.1, 0.01])
def test_zeta_residual(x):
    z = solve_zeta(x)
    assert 0 < z < math.pi
    assert abs(math.sin(z) / z - x) < 1e-12


def test_solver_domain_errors():
    with pytest.raises(ValueError):
        solve_xi(0.5)
    with pytest.raises(ValueError):
        solve_zeta(1.5)
    with pytest.raises(ValueError):
        solve_kappa(1.5)
    with pytest.raises(ValueError):
        solve_lambda(0.5)


def test_solvers_take_arrays_elementwise():
    # an array solve is the scalar solve at every element, whatever its
    # neighbours: each element keeps its own first converged iterate
    rho = np.geomspace(1.0001, 1e12, 23)
    for solve, arg in ((solve_lambda, rho), (solve_zeta, 1.0 / rho),
                       (solve_xi, rho), (solve_kappa, 1.0 / rho)):
        out = solve(arg.reshape(23, 1))
        assert out.shape == (23, 1)
        assert out.ravel().tolist() == [solve(float(a)) for a in arg]
        assert solve(arg[::-1])[::-1].tolist() == out.ravel().tolist()
    assert solve_tan_eta(np.arange(1, 6)).tolist() == [solve_tan_eta(k)
                                                        for k in range(1, 6)]
    assert isinstance(solve_lambda(2.0), float)


def test_non_convergence_raises_with_last_iterate(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_ITER", 1)
    with pytest.raises(RootSolveError) as exc:
        solve_lambda(np.array([1.5, 3.0]))
    assert exc.value.last_iterate.shape == exc.value.residual.shape == (2,)
    assert np.all((0.0 < exc.value.last_iterate) & (exc.value.last_iterate < math.pi))


@given(st.floats(min_value=0.01, max_value=0.999))
def test_kappa_property(rho):
    kappa = solve_kappa(rho)
    assert abs(rho * math.sinh(kappa) / kappa - 1.0) < 1e-11


@given(st.floats(min_value=1.001, max_value=100.0))
def test_lambda_property(rho):
    lam = solve_lambda(rho)
    assert abs(lam + rho * math.sin(lam) - math.pi) < 1e-11


# -- critical points ----------------------------------------------------------------

def test_eta_residuals_and_brackets():
    for k in range(1, 8):
        eta = solve_tan_eta(k)
        assert k * math.pi < eta < k * math.pi + math.pi / 2
        assert abs(math.sin(eta) - eta * math.cos(eta)) < 1e-11


def test_critical_point_table_matches_printed_values():
    table = critical_points(5)
    for i in range(5):
        assert abs(table.eta[i] - ETA_PRINTED[i]) < 1.1e-4
        assert abs(table.z[i] - Z_PRINTED[i]) < 1.1e-2
        assert abs(table.omega[i] - OMEGA_PRINTED[i]) < 1.1e-4
        assert abs(singularity_distance(i + 1, table) - LOGDIST_PRINTED[i]) < 1.1e-4


def test_critical_point_structure():
    table = critical_points(8)
    etas = table.eta
    assert all(b > a for a, b in zip(etas, etas[1:]))
    omegas = table.omega
    for k, w in enumerate(omegas, start=1):
        assert math.copysign(1, w) == (-1) ** k
    mags = [abs(w) for w in omegas]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    assert all(m < abs(omegas[0]) for m in mags[1:])


def test_rho_x_theta_x_six_figures():
    table = critical_points(1)
    assert abs(table.rho_x / 3.49295 - 1.0) < 5e-6
    assert abs(table.theta_x / 2.02317 - 1.0) < 5e-6


# -- closed-form evaluators ----------------------------------------------------------

def test_F_at_expansion_point():
    assert abs(F_exact(1.0) - (PI2_HALF - 1.0)) < 1e-14


def test_G_at_expansion_point():
    assert abs(G_exact(1.0) - math.sqrt(3.0)) < 1e-14


def test_JBS_at_one_and_nonnegative():
    assert JBS_exact(1.0) == 0.0
    for x in np.exp(np.linspace(-3, 3, 41)):
        assert JBS_exact(float(x)) >= 0.0


def test_F_series_cross_oracle():
    # F(e^{-t}) = offset + sum c_n (-t)^n with the printed table
    coeffs = coeffs_F(40).float_coeffs()
    val = horner(coeffs, -0.1) + (PI2_HALF - 1.0)
    assert abs(F_exact(math.exp(-0.1)) - val) < 1e-12


def test_G_series_cross_oracle():
    coeffs = coeffs_G(40).float_coeffs()
    val = math.sqrt(3.0) * horner(coeffs, -0.1)
    assert abs(G_exact(math.exp(-0.1)) - val) < 1e-12


def test_JBS_series_cross_oracle():
    coeffs = coeffs_jbs(40, "log").float_coeffs()
    val = horner(coeffs, 0.1)
    assert abs(JBS_exact(math.exp(0.1)) - val) < 1e-12


def test_JBS_lower_branch_value():
    # x = 0.5 sits on the sin branch
    z = solve_zeta(0.5)
    assert abs(JBS_exact(0.5) - (z * math.tan(z / 2) - z * z / 2)) < 1e-13


def test_branch_continuity_across_one():
    # the two code paths (local series inside the guard, closed form
    # outside) must agree where they hand over, on both sides of 1
    from hwkit.exact import SERIES_GUARD
    for fn in (F_exact, G_exact, JBS_exact):
        for side in (+1.0, -1.0):
            y_in = side * SERIES_GUARD * (1 - 1e-9)
            y_out = side * SERIES_GUARD * (1 + 1e-9)
            assert abs(fn(math.exp(y_in)) - fn(math.exp(y_out))) < 1e-8
    # and the straddling grid shows no kink beyond smooth h^2 variation
    rhos = np.exp(np.linspace(-5e-3, 5e-3, 101))
    for fn in (F_exact, G_exact, JBS_exact):
        vals = [fn(float(r)) for r in rhos]
        assert np.abs(np.diff(vals, n=2)).max() < 1e-7


def test_wide_grid_finite_and_continuous():
    rhos = np.exp(np.linspace(math.log(0.01), math.log(100.0), 201))
    fvals = [F_exact(float(r)) for r in rhos]
    gvals = [G_exact(float(r)) for r in rhos]
    assert all(np.isfinite(fvals)) and all(np.isfinite(gvals))
    assert all(g > 0 for g in gvals)
    # G stays positive and finite far out
    for r in (200.0, 1e3):
        assert 0.0 < G_exact(r) < np.inf


def test_series_exact_overlap_agreement(evals40):
    # inside |log rho| <= 2 the order-40 series and the closed forms agree
    F40, G40 = evals40
    for r in np.exp(np.linspace(-2.0, 2.0, 41)):
        r = float(r)
        assert abs(F40(r) - F_exact(r)) < 1e-10
        assert abs(G40(r) - G_exact(r)) < 1e-10
        assert abs(JBS_exact(r) - horner(coeffs_jbs(40, "log").float_coeffs(),
                                         math.log(r))) < 1e-10


def test_domain_errors():
    with pytest.raises(ValueError):
        F_exact(0.0)
    with pytest.raises(ValueError):
        G_exact(-1.0)
    with pytest.raises(ValueError):
        JBS_exact(0.0)


# -- against 40-digit mpmath ---------------------------------------------------------

def _mp_closed_form(name, r):
    """F, G or J_BS at the float r, to 40 digits: the paper's formulas at
    roots that mpmath solves on analytic brackets, sinh(xi)/xi = x in the
    log domain and sin(zeta)/zeta = x."""
    with mpmath.workdps(40):
        r, pi = mpmath.mpf(r), mpmath.pi
        if r == 1:
            return {"F": pi ** 2 / 2 - 1, "G": mpmath.sqrt(3), "JBS": mpmath.mpf(0)}[name]

        def xi(x):
            y = mpmath.log(x)
            return mpmath.findroot(lambda t: mpmath.log(mpmath.sinh(t) / t) - y,
                                   (mpmath.sqrt(6 * y), 3 * y + mpmath.log(2)),
                                   solver="anderson")

        def zeta(x):
            return mpmath.findroot(lambda t: mpmath.sin(t) / t - x,
                                   (mpmath.sqrt(6 * (1 - x)), pi / (1 + x)),
                                   solver="anderson")
        if name == "JBS":
            if r > 1:
                t = xi(r)
                return t ** 2 / 2 - t * mpmath.tanh(t / 2)
            t = zeta(r)
            return t * mpmath.tan(t / 2) - t ** 2 / 2
        if r < 1:
            k = xi(1 / r)
            if name == "F":
                return k ** 2 / 2 - k / mpmath.tanh(k) + pi ** 2 / 2
            return r * mpmath.sinh(k) / mpmath.sqrt(r * mpmath.cosh(k) - 1)
        lam = pi - zeta(1 / r)
        if name == "F":
            return -lam ** 2 / 2 + (pi - lam) / mpmath.tan(lam) + pi * lam
        return r * mpmath.sin(lam) / mpmath.sqrt(1 + r * mpmath.cos(lam))


# 401 log-spaced points over 24 decades, and both edges of the series
# guard band from either side
_SWEEP = np.concatenate([
    np.geomspace(1e-12, 1e12, 401),
    np.exp(np.outer([-1.0, 1.0], [0.5, 0.99, 1.01, 1.2, 2.0]).ravel() * SERIES_GUARD)])


@pytest.mark.parametrize("fn", [F_exact, G_exact, JBS_exact], ids=lambda f: f.__name__)
def test_closed_forms_match_40_digit_mpmath(fn):
    name = fn.__name__.removesuffix("_exact")
    want = np.array([float(_mp_closed_form(name, r)) for r in _SWEEP.tolist()])
    err = np.abs(fn(_SWEEP) - want)
    worst = int(np.argmax(err / np.maximum(np.abs(want), 1e-300)))
    assert err[worst] <= 1e-13 * abs(want[worst]), (name, _SWEEP[worst], err[worst])


def test_closed_forms_finite_at_the_ends_of_the_double_range():
    rho = np.array([1e-300, 1e300])
    for fn in (F_exact, G_exact, JBS_exact):
        assert np.isfinite(fn(rho)).all()
    assert (F_exact(rho) > 0).all() and (G_exact(rho) > 0).all()
