"""Hartman-Watson integral: direct quadrature vs leading asymptotics."""

import math

import pytest

from hwkit.exact import F_exact, G_exact, PI2_HALF
from hwkit.hartman import (SMALL_T_THRESHOLD, ThetaSmallTimeError, theta_asympt,
                           theta_hw, theta_hw_stability)


def theta_asympt_log(rho, t):
    """log theta_asympt(rho, t), finite where theta_asympt underflows."""
    return (-(F_exact(rho) - PI2_HALF) / t + math.log(G_exact(rho))
            - math.log(2.0 * math.pi * t))


def test_positivity_moderate_t():
    for t in (0.5, 1.0, 2.0):
        assert theta_hw(1.0, t) > 0.0


def test_asympt_formula_structure():
    # t log theta -> -(F(rho) - pi^2/2) as t -> 0
    rho = 1.7
    lim = -(F_exact(rho) - PI2_HALF)
    # remainder is t log(G/(2 pi t)): O(t log t)
    for t, tol in ((1e-3, 8e-3), (1e-5, 1.5e-4)):
        assert t * theta_asympt_log(rho, t) == pytest.approx(lim, abs=tol)


def test_asympt_at_expansion_point():
    t = 0.3
    expect = math.exp(1.0 / t) * math.sqrt(3.0) / (2 * math.pi * t)
    assert theta_asympt(1.0, t) == pytest.approx(expect, rel=1e-12)


def test_quadrature_vs_asympt_at_fixed_rho():
    gaps = []
    for t in (0.5, 0.3, 0.2):
        hw = theta_hw(1.0 / t, t)
        asy = theta_asympt(1.0, t)
        gaps.append(abs(hw / asy - 1.0))
    assert gaps[0] < 0.25 and gaps[-1] < 0.25
    assert gaps[0] > gaps[1] > gaps[2]  # leading-order gap shrinks with t


def test_node_doubling_convergence_criterion():
    st = theta_hw_stability(1.0, 1.0)
    assert st["converged"]
    assert st["rel_changes"][-1] < 1e-9


def test_small_t_instability_detected():
    for t in (0.05, 0.04):
        st = theta_hw_stability(1.0 / t, t)
        assert not st["converged"]
        assert max(st["rel_changes"]) > 1e-2


def test_small_t_refusal():
    with pytest.raises(ThetaSmallTimeError) as err:
        theta_hw(1.0, SMALL_T_THRESHOLD * 0.5)
    assert "theta_asympt" in str(err.value)


def test_input_validation():
    with pytest.raises(ValueError):
        theta_hw(-1.0, 0.5)
    with pytest.raises(ValueError):
        theta_asympt(0.0, 0.5)
