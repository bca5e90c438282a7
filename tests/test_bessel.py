"""Bessel-K integral representation against independent references."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from hwkit import bessel
from hwkit.bessel import bessel_k_scaled
from hwkit.quadrature import QuadratureError, integrate


def bessel_k(nu: float, x: float) -> float:
    """K_nu(x) from the scaled function, at arguments where e^-x is normal."""
    return math.exp(-x) * bessel_k_scaled(nu, x)


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


def test_grid_vs_scipy():
    for nu in np.linspace(0.0, 4.0, 9):
        for x in np.geomspace(0.5, 100.0, 7):
            assert bessel_k(float(nu), float(x)) == pytest.approx(
                float(sps.kv(nu, x)), rel=1e-11)


def test_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        bessel_k_scaled(1.0, 0.0)


def test_array_argument_equals_scalar_calls():
    x = np.geomspace(0.01, 3e4, 97)
    for nu in (-3.0, 0.0, 0.6, 7.3):
        arr = bessel_k_scaled(nu, x)
        assert arr.shape == x.shape
        for xi, got in zip(x, arr):
            want = bessel_k_scaled(nu, float(xi))
            assert type(want) is float
            assert abs(got - want) <= 1e-14 * want
    grid = x[:96].reshape(8, 12)
    assert np.array_equal(bessel_k_scaled(0.6, grid),
                          bessel_k_scaled(0.6, grid.ravel()).reshape(8, 12))


def _recording_levels(monkeypatch):
    """Per integrate call of bessel, the shape of each level's values and
    its node count, as a list of lists of (shape, n)."""
    calls = []

    def recording(level, *args, **kwargs):
        calls.append([])

        def level_seen(n):
            values = level(n)
            calls[-1].append((np.shape(values), n))
            return values
        return integrate(level_seen, *args, **kwargs)

    monkeypatch.setattr(bessel, "integrate", recording)
    return calls


def test_one_batched_quadrature_per_call(monkeypatch):
    # one driver call, all 64 arguments in one array at every level
    calls = _recording_levels(monkeypatch)
    bessel_k_scaled(-0.6, np.linspace(1.0, 400.0, 64))
    assert len(calls) == 1 and calls[0]
    assert all(shape == (64,) for shape, _ in calls[0])


def test_tiny_argument_converges_within_the_node_cap(monkeypatch):
    # at x = 1e-300 the integrand is flat to u near 690 and then falls off
    # sharply, at the window's end: the doubling needs 1024 nodes, one
    # rule short of its cap
    calls = _recording_levels(monkeypatch)
    bessel_k_scaled(0.5, 1e-300)
    assert [n for _, n in calls[0]] == [32, 64, 128, 256, 512, 1024]


@pytest.mark.parametrize("nu", [0.0, 0.6, 3.0])
def test_log_spaced_sweep_vs_mpmath(nu):
    # 50 arguments from 1e-300 to 1e12: each converges to mpmath, or its
    # scaled value overflows double precision and it raises for that
    for x in np.geomspace(1e-300, 1e12, 50):
        if bessel._overflows(nu, np.array([x])):
            with pytest.raises(QuadratureError, match="overflows"):
                bessel_k_scaled(nu, x)
            continue
        want = float(mpmath.besselk(nu, x) * mpmath.exp(x))
        assert bessel_k_scaled(nu, x) == pytest.approx(want, rel=1e-12), x


def test_large_order_without_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bessel_k_scaled(999.5, 4e4)
    want = mpmath.besselk(999.5, 4e4) * mpmath.exp(4e4)
    assert got == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("x", [1e9, 1e10, 1e12])
@pytest.mark.parametrize("nu", [0.6, 3.0])
def test_huge_argument_vs_mpmath(nu, x):
    # the integrand's peak narrows like x^(-1/2); the window follows it
    want = float(mpmath.besselk(nu, x) * mpmath.exp(x))
    assert bessel_k_scaled(nu, x) == pytest.approx(want, rel=1e-14)


def test_tiny_argument_is_computed():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (0.0, 0.5, 1.0):
            want = float(mpmath.besselk(nu, 1e-300) * mpmath.exp(1e-300))
            got = bessel_k_scaled(nu, 1e-300)
            assert got == pytest.approx(want, rel=1e-12)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("a quadrature ran before input validation")


@pytest.mark.parametrize("nu, x", [
    (1.0, math.nan), (math.nan, 1.0), (1.0, math.inf), (math.inf, 1.0),
    (1.0, -math.inf), (1.0, 0.0), (1.0, -2.0),
    (1.0, np.array([1.0, math.nan])), (0.5, np.array([3.0, 0.0, 1.0]))])
def test_bad_input_refused_before_any_quadrature(nu, x, monkeypatch):
    monkeypatch.setattr(bessel, "integrate", _no_quadrature)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="bessel_k needs"):
            bessel_k_scaled(nu, x)


@pytest.mark.parametrize("nu, x, match", [
    (999.0, 1.0, "overflows double precision"),
    (1.0, 1e-320, "no integration window"),
    (0.0, 5e-324, "no integration window")])
def test_unrepresentable_result_raises_typed_error(nu, x, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=match):
            bessel_k_scaled(nu, x)
