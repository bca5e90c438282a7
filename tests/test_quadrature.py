"""The quadrature entry point and the schemes it accepts."""

import math

import pytest

from hwkit.quadrature import QuadratureSpec, integrate


@pytest.mark.parametrize("scheme", ["tanh-sinh", "gauss-legendre-composite"])
def test_schemes_integrate_a_smooth_function(scheme):
    val, _ = integrate(lambda x: x ** 2, 0.0, 1.0, QuadratureSpec(scheme=scheme))
    assert math.isclose(val, 1 / 3, rel_tol=1e-12)


@pytest.mark.parametrize("scheme", ["newton-cotes-composite", "bogus"])
def test_unknown_scheme_refused(scheme):
    with pytest.raises(ValueError, match="scheme must be one of"):
        QuadratureSpec(scheme=scheme)
