"""Puiseux constants, transfer-law amplitudes, and the epsilon diagnostics."""

import math
import statistics

import mpmath
import pytest

from hwkit.asympt import (FAMILIES, asymptotic_constants, convergence_radius,
                          diagnostic_epsilon, epsilon_csv, exact_family_floats,
                          kernel_derivatives_at_z1, leading_term, puiseux_data,
                          trig_factor)
from hwkit.exact import critical_points
from hwkit.tables import coeffs_h

# printed five-significant-figure reference values
C_INF_PRINTED = -8.48671
D_INF_PRINTED = -13.4011
D_J_PRINTED = -23.4048
D_F_PRINTED = -23.4047
D_G_PRINTED = 0.719253


def sig5(x):
    return float(f"{x:.5g}")


def h_real_axis(omega: float) -> float:
    """h(omega) for real omega in (omega_1, 1], by bisecting g on (z_1, 0].

    The oracle for C1/C2: a direct fit of the branch-point expansion; g
    is monotone increasing on (z_1, 0] with range (omega_1, 1].
    """
    pd = puiseux_data()
    if not pd.omega1 < omega <= 1.0:
        raise ValueError("omega outside (omega_1, 1]")

    def g(z):
        if z == 0:
            return 1.0
        r = math.sqrt(-z)
        return math.sin(r) / r

    lo, hi = pd.z1 + 1e-13, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < omega:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * (1 + abs(mid)):
            break
    return 0.5 * (lo + hi)


def test_constants_reproduce_printed_values():
    ac = asymptotic_constants()
    assert abs(ac.c_inf / C_INF_PRINTED - 1) < 5e-6
    assert abs(ac.d_inf / D_INF_PRINTED - 1) < 5e-6
    assert abs(ac.d_J / D_J_PRINTED - 1) < 5e-6
    assert abs(ac.d_F / D_F_PRINTED - 1) < 5e-6
    assert abs(ac.d_G / D_G_PRINTED - 1) < 5e-6


def test_C1_defining_relation():
    # C1^2 = -8 z1 / l''(eta_1), with l(eta) = sin(eta)/eta differentiated
    # along the real eta axis (independent central-difference route)
    pd = puiseux_data()
    table = critical_points(1)
    eta1 = table.eta[0]

    def ell(e):
        return math.sin(e) / e

    h = 1e-5
    lpp = (ell(eta1 + h) - 2 * ell(eta1) + ell(eta1 - h)) / h / h
    assert abs(pd.C1 ** 2 - (-8 * pd.z1 / lpp)) < 1e-4 * pd.C1 ** 2
    assert pd.C1 > 0


def test_C1_sign_convention_real_axis():
    # h increases from z1 as omega moves from omega_1 toward 1
    pd = puiseux_data()
    w = pd.omega1 + 1e-4
    assert h_real_axis(w) > pd.z1


def test_puiseux_fit_validates_C1_C2():
    # fit h(omega) - z1 - C1 sqrt(omega-omega_1) ~ C2 (omega-omega_1)
    pd = puiseux_data()
    for delta, tol1, tol2 in ((1e-5, 2e-2, 0.2), (1e-7, 2e-3, 0.02)):
        w = pd.omega1 + delta
        hval = h_real_axis(w)
        c1_est = (hval - pd.z1) / math.sqrt(delta)
        assert abs(c1_est / pd.C1 - 1) < tol1
        c2_est = (hval - pd.z1 - pd.C1 * math.sqrt(delta)) / delta
        assert abs(c2_est / pd.C2 - 1) < tol2


def test_c_inf_second_route():
    # c_inf = -eta_1 sqrt(2 (1 - omega_1) / (pi |l''(eta_1)|))
    ac = asymptotic_constants()
    table = critical_points(1)
    eta1, omega1 = table.eta[0], table.omega[0]

    def ell(e):
        return math.sin(e) / e

    h = 1e-5
    lpp = abs((ell(eta1 + h) - 2 * ell(eta1) + ell(eta1 - h)) / h / h)
    direct = -eta1 * math.sqrt(2 * (1 - omega1) / (math.pi * lpp))
    assert abs(direct / ac.c_inf - 1) < 1e-5


def test_kernel_derivative_identity():
    # exponent kernel = rate kernel - 1/g + const, and 1/(g(h(omega))) is
    # analytic at omega_1, so the two 3/2-power amplitudes coincide
    pd = puiseux_data()
    assert abs(pd.C32_J / pd.C32_F - 1) < 1e-12
    ac = asymptotic_constants()
    assert abs(ac.d_J - ac.d_F) < 1e-9 * abs(ac.d_J)
    kd = kernel_derivatives_at_z1()
    # the kernels differ by -1/g whose curvature at z1 is nonzero
    assert abs(kd["rate_dd"] - kd["exp_dd"]) > 1e-3


def test_closed_forms_against_mpmath_taylor():
    # 30-digit Taylor data at z1 of g = sinh(sqrt z)/sqrt z, of cosh sqrt z
    # and of the two kernels, by mpmath's numerical differentiation: an
    # independent check of the closed forms derived from g's ODE
    with mpmath.workdps(30):
        eta1 = mpmath.findroot(lambda e: mpmath.tan(e) - e, 4.4934)
        z1 = -eta1 ** 2

        def g(z):
            return mpmath.re(mpmath.sinh(mpmath.sqrt(z)) / mpmath.sqrt(z))

        def cosh(z):
            return mpmath.re(mpmath.cosh(mpmath.sqrt(z)))

        a = mpmath.taylor(g, z1, 3)
        c = mpmath.taylor(cosh, z1, 3)
        rate = mpmath.taylor(lambda z: z / 2 - (cosh(z) - 1) / g(z), z1, 3)
        expo = mpmath.taylor(lambda z: z / 2 - cosh(z) / g(z), z1, 3)
        assert abs(a[1]) < 1e-25 and abs(c[2]) < 1e-25
        want = {"C1": 1 / mpmath.sqrt(a[2]), "C2": -a[3] / (2 * a[2] ** 2),
                "rate_dd": 2 * rate[2], "rate_ddd": 6 * rate[3],
                "exp_dd": 2 * expo[2], "exp_ddd": 6 * expo[3]}
    pd = puiseux_data()
    got = dict(kernel_derivatives_at_z1(), C1=pd.C1, C2=pd.C2)
    assert pd.z1 == pytest.approx(float(z1), rel=1e-14)
    for name, value in want.items():
        assert got[name] == pytest.approx(float(value), rel=1e-13), name


def test_asympt_c_ratio_limit():
    pd = puiseux_data()
    r = leading_term("c", 400) / leading_term("c", 401)
    assert abs(r / (-(1 - pd.omega1)) - 1) < 0.01


def test_asympt_cJ_is_plus_minus_two():
    assert leading_term("cJ", 7) == -2.0
    assert leading_term("cJ", 10) == 2.0


def test_asympt_dG_log_structure():
    # log|asympt| + n log rho_x + 3/4 log n equals log|d_G sin(...)|: bounded
    table = critical_points(1)
    ac = asymptotic_constants()
    bound = math.log(abs(ac.d_G)) + 1e-12
    for n in range(5, 200, 7):
        v = leading_term("dG", n)
        if v == 0:
            continue
        resid = (math.log(abs(v)) + n * math.log(table.rho_x)
                 + 0.75 * math.log(n))
        assert resid <= bound


def test_c100_against_asymptotics():
    c100 = float(coeffs_h(100).coeffs[100])
    assert abs(c100 / leading_term("c", 100) - 1) < 0.05


def test_dF_sign_agreement_at_50():
    rows = dict((r[0], r) for r in diagnostic_epsilon("dF", 50))
    n, exact, approx, eps, tf = rows[50]
    if abs(tf) >= 0.1:
        assert math.copysign(1, exact) == math.copysign(1, approx)


def test_convergence_radii():
    # h has its branch point at omega_1, J_BS ~ 2/x a pole at x = 0, and
    # every log-variable family its singularities at distance rho_x
    table = critical_points(1)
    want = {"c": 1.0 - table.omega[0], "cJ": 1.0, "d": table.rho_x,
            "dJ": table.rho_x, "dF": table.rho_x, "dG": table.rho_x}
    assert sorted(FAMILIES) == sorted(want)
    for family, radius in want.items():
        assert convergence_radius(family) == pytest.approx(radius, rel=1e-15)


def test_trig_factor_definition():
    table = critical_points(1)
    for n in (10, 37, 97):
        assert trig_factor("dJ", n) == pytest.approx(
            math.cos(table.theta_x * (n - 1.5)), abs=1e-12)


def test_epsilon_median_improves_for_c():
    rows = diagnostic_epsilon("c", 100)
    eps = {n: abs(e) for n, _, _, e, _ in rows}
    early = statistics.median(eps[n] for n in range(20, 36))
    late = statistics.median(eps[n] for n in range(85, 101))
    assert late < early


def test_root_test_medians():
    # |coeff_n|^{1/n} approaches the reciprocal convergence radius from
    # below, at rate (p log n)/n for a family damped by n^{-p}.  At
    # n in [80,100] that puts the p = 3/2 and 3/4 families within ~5% of
    # the limit and the p = 5/2 families (dJ/dF) within ~9.2%; the
    # deviations themselves are pinned here.
    table = critical_points(1)
    cases = {"c": (1.0 / (1.0 - table.omega[0]), 0.0505),
             "d": (1.0 / table.rho_x, 0.0505),
             "dG": (1.0 / table.rho_x, 0.050),
             "dJ": (1.0 / table.rho_x, 0.095),
             "dF": (1.0 / table.rho_x, 0.095)}
    for family, (lim, bound) in cases.items():
        vals = exact_family_floats(family, 100)
        med = statistics.median(abs(vals[n]) ** (1.0 / n)
                                for n in range(80, 101))
        assert med < lim, family  # approach strictly from below
        assert abs(med / lim - 1) < bound, (family, med / lim - 1)


def test_root_test_deviation_shrinks_with_n():
    table = critical_points(1)
    limits = {"c": 1.0 / (1.0 - table.omega[0]), "d": 1.0 / table.rho_x,
              "dJ": 1.0 / table.rho_x, "dF": 1.0 / table.rho_x,
              "dG": 1.0 / table.rho_x}
    for family, lim in limits.items():
        vals = exact_family_floats(family, 100)
        devs = []
        for lo, hi in ((40, 60), (60, 80), (80, 100)):
            med = statistics.median(abs(vals[n]) ** (1.0 / n)
                                    for n in range(lo, hi + 1))
            devs.append(abs(med / lim - 1))
        assert devs[0] > devs[1] > devs[2], family


def test_epsilon_tail_bounds_all_families():
    for family in ("c", "d", "cJ", "dJ", "dF", "dG"):
        rows = diagnostic_epsilon(family, 100)
        tail = [abs(e) for n, _, _, e, tf in rows
                if 90 <= n <= 100 and abs(tf) > 0.3]
        assert tail, family
        assert max(tail) < 0.25, (family, max(tail))


def test_outlier_at_97():
    rows = dict((r[0], r) for r in diagnostic_epsilon("dJ", 97))
    n, exact, approx, eps, tf = rows[97]
    assert abs(tf) < 0.1
    assert abs(eps) > 3.0


def test_csv_emission():
    rows = diagnostic_epsilon("d", 12)
    text = epsilon_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "n,coeff_exact,coeff_asympt,epsilon,trig_factor"
    assert len(lines) == len(rows) + 1
    assert all(len(ln.split(",")) == 5 for ln in lines[1:])


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        diagnostic_epsilon("bogus", 10)
    with pytest.raises(ValueError):
        trig_factor("bogus", 3)
    with pytest.raises(ValueError):
        leading_term("bogus", 3)
