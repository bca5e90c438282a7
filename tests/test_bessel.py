"""Bessel-K integral representation against independent references."""

import math

import numpy as np
import pytest
import scipy.special as sps

from hwkit.bessel import bessel_k, bessel_k_log, bessel_k_scaled


def bessel_k_half_integer(k: int, x: float) -> float:
    """K_{k+1/2}(x) from the closed form of K_{1/2} and the recurrence."""
    if k < 0:
        raise ValueError("k must be >= 0")
    base = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
    if k == 0:
        return base
    prev, cur = base, base * (1.0 + 1.0 / x)  # K_{1/2}, K_{3/2}
    nu = 1.5
    for _ in range(k - 1):
        prev, cur = cur, prev + (2.0 * nu / x) * cur
        nu += 1.0
    return cur


def test_symmetry_in_order():
    for nu in (0.0, 0.7, 1.5, 2.3, 4.0):
        for x in (0.5, 2.0, 10.0, 100.0):
            a, b = bessel_k(nu, x), bessel_k(-nu, x)
            assert abs(a - b) <= 1e-12 * abs(a)


def test_half_integer_closed_form():
    for x in (0.3, 1.0, 5.0, 40.0):
        expect = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(expect, rel=1e-12)


def test_k3_at_10_vs_references():
    ours = bessel_k(3.0, 10.0)
    assert ours == pytest.approx(float(sps.kv(3, 10.0)), rel=1e-12)


def test_half_integer_recurrence_route():
    # K_{5/2} from the closed-form recurrence vs our quadrature
    for x in (0.8, 3.0, 12.0):
        assert bessel_k(2.5, x) == pytest.approx(bessel_k_half_integer(2, x),
                                                 rel=1e-12)


def test_scaled_large_argument_vs_scipy():
    for nu in (0.6, 3.0):
        for x in (500.0, 4000.0, 20000.0):
            assert bessel_k_scaled(nu, x) == pytest.approx(
                float(sps.kve(nu, x)), rel=1e-10)


def test_log_domain_beyond_underflow():
    lg = bessel_k_log(1.0, 800.0)
    # compare against scaled scipy value: log K = log kve - x
    assert lg == pytest.approx(math.log(float(sps.kve(1.0, 800.0))) - 800.0,
                               abs=1e-10)
    assert bessel_k(1.0, 800.0) >= 0.0  # underflow-guarded, not an exception


def test_grid_vs_scipy():
    for nu in np.linspace(0.0, 4.0, 9):
        for x in np.geomspace(0.5, 100.0, 7):
            assert bessel_k(float(nu), float(x)) == pytest.approx(
                float(sps.kv(nu, x)), rel=1e-11)


def test_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)
