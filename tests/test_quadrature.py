"""The one adaptive driver, quadrature.integrate, on Gauss-Legendre rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwkit.quadrature import (QuadratureError, gauss_legendre_nodes, integrate,
                              relative)


def _on_rules(f, a, b):
    """level(n) for integrate: f's integral over [a, b] on the n-node rule,
    one value per row when a and b are columns."""
    def level(n):
        x, w = gauss_legendre_nodes(a, b, n)
        return (f(x) * w).sum(-1)
    return level


def test_smooth_integrand_converges():
    sizes = []

    def level(n):
        sizes.append(n)
        return _on_rules(lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 2.0)(n)

    got = integrate(level, 8, 5, relative(1e-12), "smooth integral")
    want = (1.0 + math.exp(-2.0) * (3.0 * math.sin(6.0) - math.cos(6.0))) / 10
    assert type(got) is float
    assert got == pytest.approx(want, rel=1e-14)
    assert sizes == [8, 16, 32]


def test_doubling_raises_after_its_levels():
    # a step at an interior point: Gauss-Legendre converges only
    # algebraically, so 1e-9 is out of reach in four levels
    sizes = []

    def level(n):
        sizes.append(n)
        x, w = gauss_legendre_nodes(0.0, 1.0, n)
        return float(np.dot(x > 1.0 / 3.0, w))

    with pytest.raises(QuadratureError,
                       match=r"step integral did not converge in 4 levels "
                             r"\(128 nodes\)"):
        integrate(level, 16, 4, relative(1e-9), "step integral")
    assert sizes == [16, 32, 64, 128]


def test_doubling_keeps_each_rows_first_converged_level():
    # row 0 agrees from the second level, row 1 only from the fourth
    sizes = []

    def level(n):
        sizes.append(n)
        return np.array([1.0, 1.0 + 1e3 * 2.0 ** (-n)]) + 1e-12 * n

    got = integrate(level, 16, 4, relative(1e-9), "two rows")
    assert sizes == [16, 32, 64, 128]
    assert got[0] == 1.0 + 1e-12 * 32
    assert got[1] == 1.0 + 1e3 * 2.0 ** -128 + 1e-12 * 128


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_raises_at_the_first_level(bad):
    sizes = []

    def level(n):
        sizes.append(n)
        return np.array([1.0, bad])

    with pytest.raises(QuadratureError,
                       match=r"blow-up: non-finite value at 16 nodes"):
        integrate(level, 16, 4, relative(1e-9), "blow-up")
    assert sizes == [16]


def test_converged_row_may_turn_non_finite():
    # only open values are checked: a row that has converged keeps its
    # value even if a later level, still run for the other rows, is not
    # finite there
    def level(n):
        return np.array([1.0 if n < 64 else math.nan, 1.0 + 2.0 ** (-n)])

    got = integrate(level, 16, 5, relative(1e-9), "rows")
    assert got[0] == 1.0 and got[1] == 1.0 + 2.0 ** -64


def _positive(x, p):
    """A smooth positive integrand family, one parameter per interval."""
    return np.exp(-p * x * x) + (1.0 + 0.5 * np.cos(p * x)) / (1.0 + x * x)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(1e-3, 8.0),
                          st.floats(0.05, 30.0)), min_size=1, max_size=12))
def test_batched_equals_scalar_on_each_interval(rows):
    # every row keeps its own first converged level, so a row's value does
    # not depend on the rows it is batched with
    a, width, p = (np.array(c) for c in zip(*rows))
    b = a + width
    agree = relative(1e-12)
    vals = integrate(_on_rules(lambda x: _positive(x, p[:, None]),
                               a[:, None], b[:, None]), 16, 6, agree, "rows")
    assert vals.shape == a.shape
    for i in range(len(a)):
        val = integrate(_on_rules(lambda x: _positive(x, p[i]), a[i], b[i]),
                        16, 6, agree, "one row")
        assert type(val) is float
        assert abs(vals[i] - val) <= 1e-14 * abs(val)


def test_batched_raises_when_one_row_runs_out():
    # the constant rows agree early; the row with the jump never does
    jump = np.array([[0.0], [1.0], [0.0]])
    level = _on_rules(lambda x: 1.0 + jump * (x > 1.0 / 3.0),
                      np.zeros((3, 1)), np.ones((3, 1)))
    with pytest.raises(QuadratureError,
                       match=r"rows did not converge in 5 levels \(256 nodes\)"):
        integrate(level, 16, 5, relative(1e-12), "rows")
