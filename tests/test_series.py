"""Unit and property tests of the exact series algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwkit.rational import ONE, ZERO, rat, rational_sqrt
from hwkit.series import (OFFSET_PI2_HALF_MINUS_1, RationalSeries, SeriesError,
                          revert_series, series_add, series_compose, series_div,
                          series_from_text, series_mul, series_sqrt,
                          series_to_text)


def lagrange_revert(g: RationalSeries) -> RationalSeries:
    """Classical Lagrange inversion; O(N^2) series products, an oracle for
    the Newton reversion in hwkit.series."""
    if g.order < 1 or g.coeffs[1] == 0:
        raise SeriesError("vanishing linear coefficient: series not invertible")
    n = g.order
    ghat = (ZERO,) + g.coeffs[1:]
    # base = z/ghat(z) as a series (ghat has a simple zero at 0)
    base = series_div(RationalSeries((ONE,) + (ZERO,) * (n - 1)),
                      RationalSeries(ghat[1:]))
    out = [ZERO, base.coeffs[0]]
    power = base
    for k in range(2, n + 1):
        power = series_mul(power, base)
        out.append(power.coeffs[k - 1] / k)
    return RationalSeries(tuple(out))


def reference_mul(a: RationalSeries, b: RationalSeries) -> RationalSeries:
    """Cauchy product over rationals, one rational multiply-add per term;
    an oracle for the integer convolution in hwkit.series.series_mul."""
    n = min(a.order, b.order)
    out = [ZERO] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return RationalSeries(tuple(out), a.prefactor_sq * b.prefactor_sq)


def reference_div(a: RationalSeries, b: RationalSeries) -> RationalSeries:
    """Triangular division recurrence over rationals; an oracle for the
    fraction-free hwkit.series.series_div."""
    n = min(a.order, b.order)
    inv0 = 1 / b.coeffs[0]
    out = [ZERO] * (n + 1)
    for k in range(n + 1):
        acc = a.coeffs[k]
        for i in range(1, k + 1):
            acc -= b.coeffs[i] * out[k - i]
        out[k] = acc * inv0
    return RationalSeries(tuple(out), a.prefactor_sq / b.prefactor_sq)


def reference_sqrt(a: RationalSeries, prefactor_sq=1) -> RationalSeries:
    """Triangular square-root recurrence over rationals; an oracle for the
    fraction-free hwkit.series.series_sqrt."""
    pf = rat(prefactor_sq)
    r0 = rational_sqrt(a.coeffs[0] / pf)
    out = [r0] + [ZERO] * a.order
    inv = 1 / (2 * r0)
    for k in range(1, a.order + 1):
        acc = a.coeffs[k] / pf
        for i in range(1, k):
            acc -= out[i] * out[k - i]
        out[k] = acc * inv
    return RationalSeries(tuple(out), pf)


def S(*coeffs, **kw):
    return RationalSeries(tuple(rat(c) for c in coeffs), **kw)


# -- directed cases ---------------------------------------------------------------

def test_add_cancellation():
    assert series_add(S(1, 1), S(1, -1)).coeffs == (rat(2), rat(0))


def test_add_identity():
    a = S(3, "1/7", 5)
    assert series_add(a, S(0, 0, 0)).coeffs == a.coeffs


def test_add_exact_rationals():
    out = series_add(S(0, "1/2"), S(0, "1/3"))
    assert out.coeffs == (rat(0), rat(5, 6))


def test_add_prefactor_mismatch():
    with pytest.raises(SeriesError):
        series_add(S(1, 1), S(1, 1, prefactor_sq=3))


def test_mul_and_div_roundtrip():
    a = S(2, "1/3", -4, "7/5")
    b = S(1, -2, "1/9", 3)
    assert series_div(series_mul(a, b), b).coeffs == a.coeffs


def test_div_zero_constant_term():
    with pytest.raises(SeriesError):
        series_div(S(1, 1), S(0, 1))


def test_div_reproduces_sinhc_coefficients():
    # sinh(sqrt z)/sqrt z / 1 keeps the table 1, 1/6, 1/120
    from series_oracles import sinhc_series
    g = series_div(sinhc_series(2), S(1, 0, 0))
    assert g.coeffs == (rat(1), rat(1, 6), rat(1, 120))


@pytest.mark.parametrize("call", [
    lambda: series_div(S(1, 1, offset=OFFSET_PI2_HALF_MINUS_1), S(1, 1)),
    lambda: series_div(S(1, 1), S(1, 1, offset=OFFSET_PI2_HALF_MINUS_1)),
    lambda: series_mul(S(1, 1, offset=OFFSET_PI2_HALF_MINUS_1), S(1, 1)),
    lambda: series_sqrt(S(1, 1, offset=OFFSET_PI2_HALF_MINUS_1)),
    lambda: series_sqrt(S(1, 1, prefactor_sq=3)),
    lambda: series_sqrt(S(1, 1), prefactor_sq=3),
    lambda: series_sqrt(S(0, 1)),
    lambda: series_sqrt(S(-4, 1)),
], ids=["div-offset-dividend", "div-offset-divisor", "mul-offset", "sqrt-offset",
        "sqrt-prefactored", "sqrt-non-square-surd", "sqrt-zero-constant",
        "sqrt-negative-constant"])
def test_kernels_refuse(call):
    with pytest.raises(SeriesError):
        call()


def test_kernels_match_references_on_large_denominators():
    # sinhc and cosh(sqrt z) at order 30 carry denominators up to 61!, so
    # the running denominator of each recurrence is rescaled many times
    from series_oracles import cosh_sqrt_series, sinhc_series
    g, c = sinhc_series(30), cosh_sqrt_series(30)
    assert series_mul(g, c) == reference_mul(g, c)
    assert series_div(c, g) == reference_div(c, g)
    assert series_div(g, c.truncate(17)) == reference_div(g, c.truncate(17))
    assert series_sqrt(g) == reference_sqrt(g)
    g3 = RationalSeries(tuple(3 * x for x in g.coeffs))
    assert series_sqrt(g3, prefactor_sq=3) == reference_sqrt(g3, prefactor_sq=3)
    assert series_sqrt(series_mul(c, c)) == c


def test_sqrt_perfect_square():
    assert series_sqrt(S(1, 2, 1)).coeffs == (rat(1), rat(1), rat(0))


def test_sqrt_non_square_rejected():
    with pytest.raises(SeriesError):
        series_sqrt(S(2, 1, 1))


def test_sqrt_with_declared_surd():
    out = series_sqrt(S(3, 6), prefactor_sq=3)
    assert out.prefactor_sq == rat(3)
    assert out.coeffs == (rat(1), rat(1))


def test_compose_identity_inner():
    from series_oracles import expm1_series
    e = S(1, 1, "1/2", "1/6")
    ident = S(0, 1, 0, 0)
    assert series_compose(e, ident).coeffs == e.coeffs
    # composing expm1 with x reproduces e^x - 1 coefficients
    assert series_compose(expm1_series(3), ident.truncate(3)).coeffs == \
        (rat(0), rat(1), rat(1, 2), rat(1, 6))


def test_compose_requires_zero_constant():
    with pytest.raises(SeriesError):
        series_compose(S(1, 1), S(1, 1))


@pytest.mark.parametrize("outer", [S(1, 1), (S(1, 1), S(0, 2, 3))])
@pytest.mark.parametrize("inner", [S(1, 1), S(0, 1, prefactor_sq=3),
                                   S(0, 1, offset=OFFSET_PI2_HALF_MINUS_1)])
def test_compose_refuses_inner(outer, inner):
    # nonzero constant term, surd or offset on the inner series
    with pytest.raises(SeriesError):
        series_compose(outer, inner)


def test_revert_quadratic():
    h = revert_series(S(0, 1, 1, 0, 0))  # x + x^2
    assert h.coeffs == (rat(0), rat(1), rat(-1), rat(2), rat(-5))


def test_revert_identity():
    assert revert_series(S(0, 1, 0)).coeffs == (rat(0), rat(1), rat(0))


def test_revert_rejects_zero_linear_term():
    with pytest.raises(SeriesError):
        revert_series(S(0, 0, 1))


def test_offset_flag_roundtrip():
    a = S(0, -1, 1, offset=OFFSET_PI2_HALF_MINUS_1)
    back = series_from_text(series_to_text(a))
    assert back == a


def test_serialization_surd():
    a = S(1, "-1/5", prefactor_sq=3)
    back = series_from_text(series_to_text(a))
    assert back.prefactor_sq == rat(3)
    assert back.coeffs == a.coeffs


# -- property tests ----------------------------------------------------------------

small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def series_strategy(min_order=0, max_order=7, nonzero_const=False,
                    zero_const=False, nonzero_linear=False):
    def build(coeffs):
        cs = list(coeffs)
        if nonzero_const and cs[0] == 0:
            cs[0] = Fraction(1)
        if zero_const:
            cs[0] = Fraction(0)
        if nonzero_linear and len(cs) > 1 and cs[1] == 0:
            cs[1] = Fraction(1, 2)
        return RationalSeries(tuple(rat(c) for c in cs))

    return st.lists(small_rats, min_size=min_order + 1,
                    max_size=max_order + 1).map(build)


@given(series_strategy(), series_strategy())
def test_add_commutes(a, b):
    assert series_add(a, b) == series_add(b, a)


@given(series_strategy(max_order=5), series_strategy(max_order=5))
def test_mul_commutes(a, b):
    assert series_mul(a, b) == series_mul(b, a)


@given(series_strategy(max_order=4), series_strategy(max_order=4),
       series_strategy(max_order=4))
def test_mul_associates_after_truncation(a, b, c):
    n = min(a.order, b.order, c.order)
    a, b, c = a.truncate(n), b.truncate(n), c.truncate(n)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


@given(series_strategy(max_order=5), series_strategy(max_order=5, nonzero_const=True))
def test_div_inverts_mul(a, b):
    n = min(a.order, b.order)
    assert series_div(series_mul(a, b), b).coeffs == a.truncate(n).coeffs


@given(series_strategy(max_order=5, nonzero_const=True))
def test_sqrt_squares_back(a):
    sq = series_mul(a, a)
    root = series_sqrt(sq)
    target = a if a.coeffs[0] > 0 else RationalSeries(tuple(-c for c in a.coeffs))
    assert root == target


@settings(deadline=None)
@given(series_strategy(min_order=1, max_order=6, zero_const=True,
                       nonzero_linear=True))
def test_revert_composes_to_identity(g):
    h = revert_series(g)
    comp = series_compose(g, h)
    expect = [rat(0)] * (g.order + 1)
    expect[0] = g.coeffs[0]
    expect[1] = rat(1)
    assert list(comp.coeffs) == expect


@settings(deadline=None)
@given(series_strategy(min_order=1, max_order=6, zero_const=True,
                       nonzero_linear=True))
def test_newton_reversion_matches_lagrange(g):
    assert revert_series(g) == lagrange_revert(g)


@given(series_strategy(max_order=4), series_strategy(max_order=4, zero_const=True),
       series_strategy(max_order=4, zero_const=True))
def test_compose_associates(f, s, t):
    n = min(f.order, s.order, t.order)
    f, s, t = f.truncate(n), s.truncate(n), t.truncate(n)
    left = series_compose(series_compose(f, s), t)
    right = series_compose(f, series_compose(s, t))
    assert left == right


def _dressed(a, surd, offset):
    """a with an optional surd prefactor and an optional symbolic offset."""
    return RationalSeries(a.coeffs, rat(surd),
                          OFFSET_PI2_HALF_MINUS_1 if offset else "")


outer_strategy = st.builds(_dressed, series_strategy(max_order=7),
                           st.sampled_from([1, 3, "5/2"]), st.booleans())


@settings(deadline=None)
@given(st.lists(outer_strategy, min_size=1, max_size=4),
       series_strategy(max_order=7, zero_const=True))
def test_tuple_compose_equals_per_outer(outers, s):
    # each result is truncated to min(its outer's order, s.order), exactly
    # as a composition of that outer alone
    together = series_compose(tuple(outers), s)
    assert isinstance(together, tuple)
    assert together == tuple(series_compose(f, s) for f in outers)
    for f, out in zip(outers, together):
        assert out.order == min(f.order, s.order)


surds = st.sampled_from([1, 3, "5/2", "1/7"])


@st.composite
def divisors(draw):
    """Plain or surd series with a nonzero (either sign) constant term and
    some interior coefficients forced to zero."""
    coeffs = draw(st.lists(small_rats, min_size=1, max_size=9))
    zeros = draw(st.lists(st.booleans(), min_size=len(coeffs), max_size=len(coeffs)))
    coeffs = [c if not z else Fraction(0) for c, z in zip(coeffs, zeros)]
    coeffs[0] = draw(st.sampled_from([-1, 1])) * draw(
        st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12))
    return RationalSeries(tuple(rat(c) for c in coeffs), rat(draw(surds)))


@given(series_strategy(max_order=8), divisors(), surds)
def test_div_equals_reference(a, b, surd):
    a = RationalSeries(a.coeffs, rat(surd))
    out = series_div(a, b)
    assert out == reference_div(a, b)
    assert out.order == min(a.order, b.order)


@given(series_strategy(max_order=8), divisors())
def test_mul_equals_reference(a, b):
    out = series_mul(a, b)
    assert out == reference_mul(a, b)
    assert out.order == min(a.order, b.order)


@given(series_strategy(max_order=8), surds,
       st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12))
def test_sqrt_equals_reference(a, surd, root0):
    # constant term surd * root0^2, so the declared surd splits off exactly
    pf = rat(surd)
    a = RationalSeries((pf * rat(root0) ** 2,) + a.coeffs[1:])
    out = series_sqrt(a, prefactor_sq=pf)
    assert out == reference_sqrt(a, prefactor_sq=pf)
    assert out.prefactor_sq == pf


@given(series_strategy(max_order=6))
def test_text_roundtrip(a):
    assert series_from_text(series_to_text(a)) == a
