"""Exact-rational checks of the coefficient tables (no float comparisons)."""

import hashlib

import pytest

from hwkit import tables
from hwkit.rational import rat
from hwkit.series import SeriesError, series_compose, series_mul, series_to_text
from hwkit.tables import (coeffs_F, coeffs_G, coeffs_h, coeffs_h_log, coeffs_jbs,
                          flip_odd_signs, natural_table)
from series_oracles import (exponent_kernel_series, expm1_series,
                            prefactor_kernel_series, rate_kernel_series,
                            sinhc_series)

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


def test_order_cap_and_validation():
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


def test_order100_tables_pinned_after_a_small_build(cold_cache):
    # order-6 tables first, so every order-100 table grows over a cached one
    for get in TABLE_GETTERS.values():
        get(6)
    for name, digest in ORDER100_DIGESTS.items():
        text = series_to_text(TABLE_GETTERS[name](100))
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
    coeffs_F(12)                     # rebuilds the log group at order 12
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
