"""Exact-rational checks of the coefficient tables (no float comparisons)."""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial, lcm

import numpy as np
import pytest

from hwkit import tables
from hwkit.asympt import FAMILIES, diagnostic_epsilon
from hwkit.cli import EXIT_OK, EXIT_USAGE, main
from hwkit.rational import rat
from hwkit.series import (DEFAULT_MAX_ORDER, RationalSeries, SeriesError,
                          series_compose, series_mul, series_to_text)
from hwkit.tables import (coeffs_F, coeffs_G, coeffs_h, coeffs_h_log, coeffs_jbs,
                          flip_odd_signs, natural_table)
from series_oracles import (exponent_kernel_series, expm1_series,
                            prefactor_kernel_series, rate_kernel_series,
                            riccati_three_equations, sinhc_series,
                            tables_from_three_equations)

# the standard printed tables these generators must reproduce exactly
H_FIRST = ["0", "6", "-9/5", "144/175"]
H_LOG_FIRST = ["0", "6", "6/5", "4/175", "-2/175"]
JBS_OMEGA_FIRST = ["0", "0", "3/2", "-9/5", "333/175"]
JBS_LOG_FIRST = ["0", "0", "3/2", "-3/10", "109/1400"]
F_TABLE = ["-1", "1", "2/15", "19/525", "22/2625", "4742/3031875",
           "43636/197071875", "146287/6897515625", "68146/57984609375",
           "6740719066/38598324999609375"]
G_TABLE = ["1", "-1/5", "-1/70", "1/1050", "299/323400", "96917/525525000",
           "-107749/10032750000", "-27333619/1876124250000",
           "-308907281743/109790791110000000",
           "1589498602063/4940585599950000000",
           "28340195926465733/103406456606953500000000"]


# SHA-256 of series_to_text of the order-100 tables (as the benchmark pins them)
ORDER100_DIGESTS = {
    "h": "4f8570d992bd7a4a69ec42187bbb062a34959c550d661cc7ac6038f88a2de0a3",
    "jbs_log": "1ad68bafaba5dde3895fabd9da368a6bbbf9cb6c3989209f47349be76bc34f01",
    "F": "9ed8722abca266154c60c7e7333619277fce0baf91957e70645b2c6231e653e8",
    "G": "1a1b5507b063acc29cd8a7fcbcfc1ac8b7380ed55397df4dfd1b172c5515c9bf",
    "h_log": "0ed76ea24649c1bc41e8692f1ef8c2e2a89bc9750c8bb004c40ac327d4203ce9",
    "jbs_omega": "dcfdd90b296c799803b1709cb0e7a4a490e446677231c24227a8e5b852183e0c",
}
# the same at the order cap, where the log solve runs one order past it for G
CAP_DIGESTS = {
    "h": "f026cf5623f3db9d73fed81a63f73906a95d1b2102d1bf0cc17dbf0ae559a718",
    "jbs_log": "e781e37fc6031cdeeae3ea60f56cbecbad06634259e80abe9cc807cbef4910f3",
    "F": "9c60a366ed4061ba30391ba7939f4fc92b04a3b18ef340f2f9cefa26df7c9759",
    "G": "b5f3fdb6f740721935b102bc10c0f568effee76b69011d39fec495fe7dc70bf1",
    "h_log": "fe2920365063afc3c1c26d34107bf6492e02143d3ecdcfb4ed0f22b071765bf2",
    "jbs_omega": "5226002d41b55db6275f339db0d061d85410376b08f8156adb8f62b91d98a452",
}
TABLE_GETTERS = {"h": coeffs_h, "jbs_log": lambda n: coeffs_jbs(n, "log"),
                 "F": coeffs_F, "G": coeffs_G, "h_log": coeffs_h_log,
                 "jbs_omega": lambda n: coeffs_jbs(n, "omega")}


def rlist(strings):
    return tuple(rat(s) for s in strings)


def test_h_first_coefficients():
    assert coeffs_h(3).coeffs == rlist(H_FIRST)


def test_h_leading_slope_is_six():
    assert coeffs_h(1).coeffs[1] == rat(6)


def test_h_log_first_coefficients():
    assert coeffs_h_log(4).coeffs == rlist(H_LOG_FIRST)


def test_jbs_omega_first_coefficients():
    assert coeffs_jbs(4, "omega").coeffs == rlist(JBS_OMEGA_FIRST)


def test_jbs_log_first_coefficients():
    assert coeffs_jbs(4, "log").coeffs == rlist(JBS_LOG_FIRST)


def test_jbs_vanishes_to_second_order():
    ser = coeffs_jbs(6, "omega")
    assert ser.coeffs[0] == 0 and ser.coeffs[1] == 0
    ser = coeffs_jbs(6, "log")
    assert ser.coeffs[0] == 0 and ser.coeffs[1] == 0


def test_F_table_exact():
    ser = coeffs_F(10)
    assert ser.coeffs[0] == 0
    assert ser.offset == "pi^2/2-1"
    assert ser.coeffs[1:] == rlist(F_TABLE)


def test_G_table_exact():
    ser = coeffs_G(10)
    assert ser.prefactor_sq == rat(3)
    assert ser.coeffs == rlist(G_TABLE)


def test_tables_are_fraction_over_int():
    # one exact backend: every coefficient is exactly a Fraction, and the
    # U-only solve's numerators (k = n h_n and U) and denominator are exactly int
    for ser in (coeffs_F(20), coeffs_G(20), coeffs_jbs(20, "omega")):
        assert {type(c) for c in ser.coeffs} == {Fraction}
        assert type(ser.prefactor_sq) is Fraction
    rows, den = tables._riccati(20, 0)
    assert {type(c) for row in rows for c in row} == {int}
    assert type(den) is int


@pytest.mark.parametrize("shift", [0, 1])
def test_riccati_denominator_is_the_least_common_one(shift):
    # the running denominator grows only as far as the terms need, so a
    # bloated one (a rescale a term did not ask for) shows up here
    for n in range(1, 41):
        (_, u), den = tables._riccati(n, shift)
        assert den == lcm(2, *(Fraction(c, den).denominator for c in u[1:])), n


def _riccati_series(order, shift):
    """h and U from the U-only solve, and V = (U - 1 + 1/x)/2 derived here.

    1/x is e^-y (shift 0) or 1/(1+w) (shift 1); h_n = k_n/n.
    """
    (k, u), den = tables._riccati(order, shift)
    h = [Fraction(0)] + [Fraction(c, n * den) for n, c in enumerate(k[1:], 1)]
    u = [Fraction(c, den) for c in u]
    inv_x = [Fraction((-1) ** n, 1 if shift else factorial(n)) for n in range(order + 1)]
    v = [(a - (n == 0) + b) / 2 for n, (a, b) in enumerate(zip(u, inv_x))]
    return h, u, v


@pytest.mark.parametrize("order,shift", [(DEFAULT_MAX_ORDER + 1, 0),
                                         (DEFAULT_MAX_ORDER, 1)])
def test_riccati_equals_the_three_equation_solve(order, shift):
    # the orders the log (G one order higher) and omega tables solve to at
    # the cap; the order-100 digests stop short of them
    rows = _riccati_series(order, shift)
    (h0, u0, v0), den0 = riccati_three_equations(order, shift)
    for row, ref in zip(rows, (h0, u0, v0)):
        assert len(row) == len(ref) == order + 1
        assert row == [Fraction(c, den0) for c in ref]


def _theta_series(a, shift):
    """theta a to one order below a: d/dy (shift 0) or (1+w) d/dw (shift 1)."""
    c = a.coeffs
    return RationalSeries(tuple((m + 1) * c[m + 1] + shift * m * c[m]
                                for m in range(a.order)))


@pytest.mark.parametrize("shift", [0, 1])
def test_riccati_rows_satisfy_the_riccati_identities(shift):
    # the solve takes U from theta(U^2)/2 = h - U - U^2 and h from the linear
    # theta h = 2 (theta U + U + 1); h, U and the V derived from them must
    # still solve the Riccati equations, and D = U - V the doubling
    # D (1 + V) = h/4
    n = 60
    h, u, v = (RationalSeries(tuple(row)) for row in _riccati_series(n + 1, shift))
    h4 = RationalSeries(tuple(c / 4 for c in h.coeffs)).truncate(n)
    one_v = RationalSeries((Fraction(1),) + v.coeffs[1:])
    d = RationalSeries(tuple(a - b for a, b in zip(u.coeffs, v.coeffs)))
    assert series_mul(d, one_v).truncate(n) == h4
    for w, z in ((u, h), (v, h4)):                   # theta W * U = z - W - W^2
        ww = series_mul(w, w)
        rhs = RationalSeries(tuple(a - b - c for a, b, c
                                   in zip(z.coeffs, w.coeffs, ww.coeffs)))
        assert series_mul(_theta_series(w, shift), u) == rhs.truncate(n)


@pytest.mark.parametrize("order", [*range(1, 13), DEFAULT_MAX_ORDER])
def test_every_table_equals_the_three_equation_oracle(cold_cache, order):
    # the low orders run the solve's loops empty or once; the cap runs them
    # longest.  Each table comes from its own builder, the order-1 J_BS
    # tables too, which table() refuses
    for name, want in tables_from_three_equations(order).items():
        builder, _ = tables._BUILDERS[name]
        assert builder(order)[name] == want, name


def test_F_natural_is_U_integrated_once():
    # theta F = 1 + U in y: n F_n = U_{n-1} from n = 2, with U from the oracle
    n = 60
    f_nat = natural_table("dF", n)
    (_, u, _), den = riccati_three_equations(n, 0)
    for m in range(2, n + 1):
        assert m * f_nat[m] == Fraction(u[m - 1], den), m


def test_G_squared_matches_its_definition():
    # 3 * (series)^2 must equal the square of the prefactor kernel composed
    # with the same inner series; checks the series_sqrt construction.
    n = 16
    ker = prefactor_kernel_series(n)
    inner = flip_odd_signs(coeffs_h_log(n))
    g_ser = coeffs_G(n)
    lhs = series_mul(g_ser, g_ser)  # carries prefactor_sq = 9... squared value
    ker_sq = series_mul(ker, ker)
    rhs = series_compose(ker_sq, inner)
    assert lhs.coeffs == rhs.coeffs
    assert lhs.prefactor_sq == rhs.prefactor_sq == rat(9)


@pytest.mark.parametrize("order", [10, 33, 60])
def test_reversion_composes_to_identity(order):
    from hwkit.series import RationalSeries
    g = sinhc_series(order)
    shifted = RationalSeries((rat(0),) + g.coeffs[1:])
    comp = series_compose(shifted, coeffs_h(order))
    assert comp.coeffs[0] == 0 and comp.coeffs[1] == 1
    assert all(c == 0 for c in comp.coeffs[2:])


def test_h_log_equals_h_composed_with_expm1():
    n = 24
    assert coeffs_h_log(n) == series_compose(coeffs_h(n), expm1_series(n))


def test_rate_kernel_first_terms():
    # z^2/24 - z^3/240 + 17 z^4/40320
    k = rate_kernel_series(4)
    assert k.coeffs == (rat(0), rat(0), rat(1, 24), rat(-1, 240), rat(17, 40320))


def test_c_sign_alternation_large_n():
    ser = coeffs_h(100)
    for n in range(20, 101):
        assert (ser.coeffs[n] > 0) == (n % 2 == 1), f"sign break at n={n}"


def test_cJ_sign_alternation():
    ser = coeffs_jbs(60, "omega")
    for n in range(10, 61):
        assert (ser.coeffs[n] > 0) == (n % 2 == 0), f"sign break at n={n}"


def test_natural_tables_are_sign_flips():
    nf = natural_table("dF", 12)
    assert flip_odd_signs(nf).coeffs == coeffs_F(12).coeffs
    ng = natural_table("dG", 12)
    assert flip_odd_signs(ng).coeffs == coeffs_G(12).coeffs


def test_exponent_minus_rate_identity():
    # The exponent and rate kernels composed with h(e^y) differ exactly by
    # pi^2/2 - e^{-y}:   coefficient identity  dF_n = dJ_n - (-1)^n/n!.
    n = 40
    f_nat = natural_table("dF", n)
    j_log = natural_table("dJ", n)
    fact = 1
    for m in range(1, n + 1):
        fact *= m
        assert f_nat.coeffs[m] == j_log.coeffs[m] - rat((-1) ** m, fact)


# the lowest order of each table: J_BS and its slope vanish at 1
LOWEST = {"h": 1, "h_log": 1, "jbs_omega": 2, "jbs_log": 2, "F": 1, "G": 1,
          "F_natural": 1, "G_natural": 1}
NATURAL = {"c": "h", "d": "h_log", "cJ": "jbs_omega", "dJ": "jbs_log",
           "dF": "F_natural", "dG": "G_natural"}


def _via_cli(command):
    """`hwkit <command> name order` as a function: its output, or its error
    message as a ValueError when it exits 2 without output."""
    def call(name, order):
        with redirect_stdout(io.StringIO()) as out, \
                redirect_stderr(io.StringIO()) as err:
            code = main([command, name, str(order)])
        if code == EXIT_USAGE and not out.getvalue():
            raise ValueError(err.getvalue())
        assert code == EXIT_OK, err.getvalue()
        return out.getvalue()
    return call


ENTRY_POINTS = {"coeffs": lambda name, order: TABLE_GETTERS[name](order),
                "table": tables.table, "natural_table": natural_table,
                "diagnostic_epsilon": diagnostic_epsilon,
                "cli coeffs": _via_cli("coeffs"), "cli asympt": _via_cli("asympt")}


@pytest.mark.parametrize("entry, name", [
    *(("coeffs", name) for name in TABLE_GETTERS),
    *(("table", name) for name in LOWEST),
    *(("natural_table", family) for family in FAMILIES),
    *(("diagnostic_epsilon", family) for family in FAMILIES),
    *(("cli coeffs", name) for name in tables.TABLES),
    *(("cli asympt", family) for family in FAMILIES)])
def test_every_entry_point_refuses_below_its_lowest_order(entry, name):
    # each answers at its lowest order and refuses the one below; the
    # diagnostics start at n = 2 for every family
    if entry in ("diagnostic_epsilon", "cli asympt"):
        lowest = 2
    else:
        lowest = LOWEST[NATURAL.get(name, name)]
    ENTRY_POINTS[entry](name, lowest)
    with pytest.raises(ValueError, match=f"order {lowest - 1} too small for"):
        ENTRY_POINTS[entry](name, lowest - 1)


def test_order_cap_and_validation():
    with pytest.raises(SeriesError):
        tables.table("bogus", 3)
    with pytest.raises(SeriesError):
        coeffs_h(0)
    with pytest.raises(SeriesError):
        coeffs_jbs(1, "log")
    with pytest.raises(SeriesError):
        coeffs_jbs(4, "bogus")
    with pytest.raises(SeriesError):
        coeffs_F(200)  # above the documented cap


@pytest.fixture
def cold_cache():
    """An empty table cache for the test; the previous one comes back after."""
    with tables._cache_lock:
        saved = dict(tables._cache)
        tables._cache.clear()
    yield
    with tables._cache_lock:
        tables._cache.clear()
        tables._cache.update(saved)


@pytest.mark.parametrize("order", [2.5, "3", True, 3.0, None])
def test_table_refuses_an_order_that_is_not_an_integer(order):
    with pytest.raises(SeriesError, match="order must be an integer"):
        tables.table("F", order)


def test_table_takes_numpy_integer_orders():
    assert tables.table("F", np.int64(12)) == coeffs_F(12)
    assert tables.table("G", np.uint8(3)) == coeffs_G(3)


def test_cold_means_cold(cold_cache, monkeypatch):
    # one Riccati solve per variable serves every table of that variable,
    # a build forms only the tables it is asked for, and an emptied cache
    # solves again
    shifts = []
    solve = tables._riccati

    def counting(order, shift):
        shifts.append(shift)
        return solve(order, shift)

    monkeypatch.setattr(tables, "_riccati", counting)
    coeffs_F(24)
    assert shifts == [0]
    assert not {"h", "h_log", "jbs_omega", "G"} & tables._cache.keys()
    coeffs_G(24)
    coeffs_jbs(24, "log")
    assert shifts == [0]
    coeffs_h(24)
    assert shifts == [0, 1]
    tables._cache.clear()
    coeffs_F(24)
    assert shifts == [0, 1, 0]


def test_order100_tables_pinned_after_a_small_build(cold_cache):
    # order-6 tables first, so every order-100 table grows over a cached one
    for get in TABLE_GETTERS.values():
        get(6)
    for name, digest in ORDER100_DIGESTS.items():
        text = series_to_text(TABLE_GETTERS[name](100))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_cap_tables_pinned(cold_cache):
    for name, digest in CAP_DIGESTS.items():
        text = series_to_text(TABLE_GETTERS[name](DEFAULT_MAX_ORDER))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


@pytest.mark.parametrize("first", ["G", "jbs_log", "F"])
def test_tables_independent_of_request_order(cold_cache, first):
    n = 24
    TABLE_GETTERS[first](n)
    got = {name: get(n) for name, get in TABLE_GETTERS.items()}
    reference = {"jbs_log": series_compose(rate_kernel_series(n), coeffs_h_log(n)),
                 "F": flip_odd_signs(series_compose(exponent_kernel_series(n),
                                                    coeffs_h_log(n))),
                 "G": flip_odd_signs(series_compose(prefactor_kernel_series(n),
                                                    coeffs_h_log(n)))}
    for name, table in reference.items():
        assert got[name] == table, name


def test_group_build_keeps_higher_order_tables(cold_cache):
    high = coeffs_jbs(30, "log")
    del tables._cache["F"]           # leaves jbs_log cached at order 30
    coeffs_F(12)                     # rebuilds F, F_natural, jbs_log at 12
    assert tables._cache["jbs_log"].order == 30
    assert tables._cache["F"].order == 12
    assert coeffs_jbs(30, "log") == high


@pytest.mark.parametrize("name", sorted(TABLE_GETTERS))
def test_every_order_is_the_order100_table_sliced(cold_cache, name):
    # the log solve runs one order higher for G, so an off-by-one in the
    # orders solved or kept shows up as a mismatch here
    get = TABLE_GETTERS[name]
    orders = [n for n in (1, 2, 3, 24) if n >= (2 if "jbs" in name else 1)]
    full = get(100)                  # large first: every later one is a slice
    for n in orders[::-1]:
        assert get(n) == full.truncate(n), n
    for n in orders:                 # each one cold
        tables._cache.clear()
        assert get(n) == full.truncate(n), n
    tables._cache.clear()
    for n in orders + [100]:         # small first: each build grows the last
        assert get(n) == full.truncate(n), n
