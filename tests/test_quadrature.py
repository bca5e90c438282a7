"""The tanh-sinh entry point and the spec it reads."""

import dataclasses
import math

import numpy as np
import pytest

from hwkit.quadrature import QuadratureError, QuadratureSpec, integrate


def test_spec_holds_only_what_is_read():
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == [
        "levels", "target_rel_err"]


def test_tanh_sinh_integrates_a_smooth_function():
    val, err = integrate(lambda x: x ** 2, 0.0, 1.0)
    assert math.isclose(val, 1 / 3, rel_tol=1e-12)
    assert err <= 1e-9 * val


def test_tanh_sinh_raises_when_levels_run_out():
    # levels 2..4 (at most 33 nodes) cannot resolve 40 oscillations
    spec = QuadratureSpec(levels=4, target_rel_err=1e-12)
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate(lambda x: 2.0 + np.cos(250.0 * x), 0.0, 1.0, spec)
