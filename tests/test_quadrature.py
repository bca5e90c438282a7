"""The tanh-sinh entry point, scalar and batched, and the spec it reads."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwkit.quadrature import (QuadratureError, QuadratureSpec,
                              _tanh_sinh_nodes, integrate)


def test_spec_holds_only_what_is_read():
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == [
        "levels", "target_rel_err"]


def test_tanh_sinh_integrates_a_smooth_function():
    val, err = integrate(lambda x: x ** 2, 0.0, 1.0)
    assert type(val) is float and type(err) is float
    assert math.isclose(val, 1 / 3, rel_tol=1e-12)
    assert err <= 1e-9 * val


def test_tanh_sinh_raises_when_levels_run_out():
    # levels 2..4 (at most 33 nodes) cannot resolve 40 oscillations
    spec = QuadratureSpec(levels=4, target_rel_err=1e-12)
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate(lambda x: 2.0 + np.cos(250.0 * x), 0.0, 1.0, spec)


def _positive(x, p):
    """A smooth positive integrand family, one parameter per interval."""
    return np.exp(-p * x * x) + (1.0 + 0.5 * np.cos(p * x)) / (1.0 + x * x)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(1e-3, 8.0),
                          st.floats(0.05, 30.0)), min_size=1, max_size=12))
def test_batched_equals_scalar_on_each_interval(rows):
    a, width, p = (np.array(c) for c in zip(*rows))
    b = a + width
    vals, errs = integrate(lambda x, r: _positive(x, p[r, None]), a, b)
    assert vals.shape == errs.shape == a.shape
    for i in range(len(a)):
        val, err = integrate(lambda x: _positive(x, p[i]), a[i], b[i])
        assert abs(vals[i] - val) <= 1e-14 * abs(val)
        assert errs[i] <= 1e-9 * abs(vals[i])


def _levels_used(f, a, b):
    """Number of levels a scalar integrate call evaluates f at."""
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)
    integrate(counted, a, b)
    return len(calls)


def test_converged_rows_leave_the_pass():
    # five constant rows agree at level 5; row 2 oscillates and needs two
    # more levels.  After the easy rows agree only row 2 is evaluated, so
    # the element count is the slow row's own plus the easy rows' levels
    freq = np.array([0.0, 0.0, 40.0, 0.0, 0.0, 0.0])
    seen = []

    def f(x, rows):
        seen.append((rows.tolist(), x.size))
        return 2.0 + np.cos(freq[rows, None] * x)

    vals, _ = integrate(f, np.zeros(6), np.ones(6))
    slow, _ = integrate(lambda x: 2.0 + np.cos(40.0 * x), 0.0, 1.0)
    easy = _levels_used(lambda x: 2.0 + 0.0 * x, 0.0, 1.0)
    assert len(seen) == _levels_used(lambda x: 2.0 + np.cos(40.0 * x),
                                     0.0, 1.0) > easy
    assert vals[2] == pytest.approx(slow, rel=1e-14)
    assert np.allclose(np.delete(vals, 2), 3.0, rtol=1e-14)
    assert [r for r, _ in seen[:easy]] == [list(range(6))] * easy
    assert all(r == [2] for r, _ in seen[easy:])
    sizes = [len(_tanh_sinh_nodes(level)[0])
             for level in range(2, 2 + len(seen))]
    assert sum(n for _, n in seen) == sum(sizes) + 5 * sum(sizes[:easy])


def test_batched_raises_when_one_row_runs_out():
    # the constant rows agree at level 5; 40 oscillations need more than 6
    spec = QuadratureSpec(levels=6, target_rel_err=1e-12)
    freq = np.array([0.0, 250.0, 0.0])
    with pytest.raises(QuadratureError,
                       match=r"did not converge on \[0.0, 1.0\] \(1 of 3"):
        integrate(lambda x, r: 2.0 + np.cos(freq[r, None] * x),
                  np.zeros(3), 1.0, spec)


def test_rejects_empty_interval():
    with pytest.raises(ValueError, match="need b > a"):
        integrate(lambda x, r: x, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
