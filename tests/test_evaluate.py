"""Piecewise evaluators: construction, accuracy, switching, profiles."""

import math
import warnings

import numpy as np
import pytest

from hwkit import exact
from hwkit.evaluate import (DEFAULT_DOMAIN, EvaluatorError, make_evaluator,
                            truncation_error_profile)
from hwkit.exact import F_exact, G_exact, JBS_exact, PI2_HALF
from hwkit.roots import (solve_kappa, solve_lambda, solve_tan_eta, solve_xi,
                         solve_zeta)
from hwkit.series import SeriesError
from hwkit.tables import coeffs_G

NAN, INF = math.nan, math.inf


def test_default_domain_is_the_benchmark_config():
    ev = make_evaluator("F", 6)
    assert ev.rho_lo == pytest.approx(0.04)
    assert ev.rho_hi == pytest.approx(32.88)
    assert ev.order == 6


def test_domain_outside_disk_rejected():
    with pytest.raises(EvaluatorError):
        make_evaluator("F", 6, (0.02, 10.0))  # log 0.02 = -3.91 < -rho_x
    with pytest.raises(EvaluatorError):
        make_evaluator("G", 6, (0.1, 40.0))


def test_bad_inputs_rejected():
    with pytest.raises(EvaluatorError):
        make_evaluator("H", 6)
    # an order under the lowest of the target's table, read from tables
    for target, order, table in (("F", 0, "F"), ("G", 0, "G"),
                                 ("JBS", 1, "jbs_log")):
        with pytest.raises(SeriesError,
                           match=f"order {order} too small for table {table} "):
            make_evaluator(target, order)
    ev = make_evaluator("F", 6)
    with pytest.raises(EvaluatorError):
        ev(-1.0)


@pytest.mark.parametrize("fn, arg, error", [
    (F_exact, NAN, ValueError),
    (F_exact, INF, ValueError),
    (G_exact, NAN, ValueError),
    (G_exact, INF, ValueError),
    (JBS_exact, NAN, ValueError),
    (JBS_exact, INF, ValueError),
    (solve_xi, NAN, ValueError),
    (solve_xi, INF, ValueError),
    (solve_zeta, NAN, ValueError),
    (solve_kappa, NAN, ValueError),
    (solve_lambda, NAN, ValueError),
    (solve_lambda, INF, ValueError),
    (solve_tan_eta, NAN, ValueError),
    (solve_tan_eta, INF, ValueError),
    (make_evaluator("F", 6), NAN, EvaluatorError),
    (make_evaluator("F", 6), INF, EvaluatorError),
    (make_evaluator("G", 6), np.array([0.5, 0.0]), EvaluatorError),
    (make_evaluator("JBS", 6), np.array([[2.0], [-1.0]]), EvaluatorError),
    (make_evaluator("F", 6), np.array([1.0, NAN]), EvaluatorError),
], ids=lambda v: getattr(v, "__name__", None) or getattr(v, "target", None))
def test_non_finite_and_nonpositive_refused(fn, arg, error):
    # refused with the typed error before any work: no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            fn(arg)


def test_offsets_and_prefactors_are_exact():
    for order in (1, 6, 24):
        F, G = (make_evaluator(t, order) for t in ("F", "G"))
        assert (F.offset, F.prefactor) == (PI2_HALF - 1.0, 1.0)
        assert (G.offset, G.prefactor) == (0.0, math.sqrt(3.0))
    for order in (2, 6, 24):        # J_BS's table starts at order 2
        J = make_evaluator("JBS", order)
        assert (J.offset, J.prefactor, J.order) == (0.0, 1.0, order)


def test_outer_path_looks_up_closed_forms_at_call_time(monkeypatch):
    for target, name in (("F", "F_exact"), ("G", "G_exact"), ("JBS", "JBS_exact")):
        ev = make_evaluator(target, 6, (0.5, 2.0))
        seen = []
        monkeypatch.setattr(exact, name, lambda rho, s=seen: s.append(rho) or -7.0)
        assert ev(20.0) == -7.0
        out = ev(np.array([0.05, 1.0, 30.0]))
        assert out[0] == out[2] == -7.0 and out[1] != -7.0
        # one closed-form call per evaluator call, on its outer points only
        assert [np.atleast_1d(s).tolist() for s in seen] == [[20.0], [0.05, 30.0]]


def test_F_at_one_is_offset_for_any_order():
    for n in (1, 3, 6, 17, 40):
        ev = make_evaluator("F", n)
        assert ev(1.0) == pytest.approx(PI2_HALF - 1.0, abs=1e-15)


def test_G_partial_sum_matches_table():
    # at rho = e^{-1/2} the inner path is the degree-6 polynomial in
    # log rho with the exact table coefficients
    ev = make_evaluator("G", 6)
    table = coeffs_G(6).float_coeffs()
    y = -0.5
    expected = math.sqrt(3.0) * sum(c * y ** n for n, c in enumerate(table))
    assert ev(math.exp(-0.5)) == pytest.approx(expected, rel=1e-15)


def test_outer_path_is_exact_delegation():
    ev = make_evaluator("G", 6, (0.5, 2.0))
    assert ev(20.0) == G_exact(20.0)
    evF = make_evaluator("F", 6, (0.5, 2.0))
    assert evF(0.05) == F_exact(0.05)
    evJ = make_evaluator("JBS", 6, (0.5, 2.0))
    assert evJ(5.0) == JBS_exact(5.0)


def test_oracle_agreement_order40(evals40):
    F40, G40 = evals40
    for rho in np.exp(np.linspace(-1.9, 1.9, 37)):
        rho = float(rho)
        assert abs(F40(rho) - F_exact(rho)) < 1e-10
        assert abs(G40(rho) - G_exact(rho)) < 1e-10


def test_jbs_evaluator_order40():
    dom = (math.exp(-2.0), math.exp(2.0))
    ev = make_evaluator("JBS", 40, dom)
    x = math.exp(1.0)
    assert abs(ev(x) - JBS_exact(x)) < 1e-8
    for x in np.exp(np.linspace(-1.5, 1.5, 21)):
        assert abs(ev(float(x)) - JBS_exact(float(x))) < 1e-10


def test_switch_point_continuity_order20plus():
    for order in (20, 28):
        dom = (math.exp(-1.6), math.exp(1.6))
        for target, ref in (("F", F_exact), ("G", G_exact)):
            ev = make_evaluator(target, order, dom)
            for edge in dom:
                inner = ev(edge * (1 - 1e-12) if edge > 1 else edge * (1 + 1e-12))
                outer = ev(edge * (1 + 1e-12) if edge > 1 else edge * (1 - 1e-12))
                assert abs(inner - outer) < 1e-8, (target, order, edge)


def test_vectorized_matches_scalar(evals40):
    F40, _ = evals40
    rhos = np.array([0.05, 0.2, 1.0, 3.0, 15.0])  # mixes inner and outer
    out = F40(rhos)
    for r, v in zip(rhos, out):
        assert v == F40(float(r))


def test_truncation_error_monotone_in_order():
    rho = math.exp(-1.0)
    per_order, _ = truncation_error_profile(
        "F", [4, 8, 12, 16, 20, 24], [rho], domain=(0.3, 3.0))
    errs = [per_order[n] for n in (4, 8, 12, 16, 20, 24)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-12


def test_truncation_error_zero_at_expansion_point():
    per_order, _ = truncation_error_profile("F", [2, 6, 12], [1.0],
                                            domain=(0.9, 1.1))
    assert all(err < 5e-16 for err in per_order.values())


@pytest.mark.parametrize("grid, domain, first_outside", [
    ([0.005, 0.01, 0.02, 0.05, 0.1], None, "0.005"),   # clipped default window
    ([0.5, 1.0, 2.0, 3.0], (0.4, 2.5), "3.0"),
])
def test_truncation_profile_refuses_points_outside_the_window(grid, domain,
                                                               first_outside):
    # outside the window the evaluator is the closed form itself, so the
    # profile would report a spurious zero error there
    with pytest.raises(EvaluatorError, match=f"rho = {first_outside} lies outside"):
        truncation_error_profile("F", [6], grid, domain=domain)


def test_order6_accuracy_on_pricing_band(evals_pricing):
    # the benchmark configuration is comfortably pointwise-accurate where
    # the pricing integrands carry their mass
    F6, G6 = evals_pricing
    for rho in np.exp(np.linspace(math.log(0.5), math.log(2.0), 31)):
        rho = float(rho)
        assert abs(F6(rho) - F_exact(rho)) < 1e-4
        assert abs(G6(rho) - G_exact(rho)) < 1e-4


def test_profile_documents_edge_stabilization():
    # over the full default window the low-order truncation error is
    # dominated by the domain edges and shrinks as N grows
    grid = list(np.exp(np.linspace(math.log(0.05), math.log(30.0), 25)))
    per_order, _ = truncation_error_profile("F", [6, 12], grid,
                                            domain=DEFAULT_DOMAIN)
    assert per_order[12] < per_order[6]
