"""CLI surface: outputs, formats, determinism, exit codes."""

import hashlib
import json
import math

import pytest

from hwkit.cli import EXIT_FILE, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_h_values(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "h", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,exact,float"
    assert lines[1].startswith("0,0/1,")
    assert lines[2].startswith("1,6/1,")
    assert lines[3].startswith("2,-9/5,")
    assert lines[4].startswith("3,144/175,")


def test_coeffs_F_series_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "series", "coeffs", "F", "10")
    assert code == EXIT_OK
    assert out.startswith("# rational-series order=10 prefactor_sq=1 "
                          "offset=pi^2/2-1")
    assert "10 6740719066/38598324999609375" in out
    # round-trips through the series parser, and is series_to_text byte for
    # byte (CI hashes this output at the order cap)
    from hwkit.series import series_from_text, series_to_text
    from hwkit.tables import coeffs_F
    assert series_from_text(out) == coeffs_F(10)
    assert out == series_to_text(coeffs_F(10))


def test_coeffs_usage_error(capsys):
    code, _, err = run_cli(capsys, "coeffs", "h", "0")
    assert code == EXIT_USAGE
    assert "order" in err


def test_unknown_family_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "bogus", "3"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("target, order, table", [
    ("JBS", "1", "jbs_log"), ("F", "0", "F")])
def test_eval_order_below_the_tables_lowest_is_a_usage_error(capsys, target,
                                                             order, table):
    # J_BS's table starts at order 2: order 1 is refused, not priced as 2
    code, out, err = run_cli(capsys, "--precision", "17", "eval", target,
                             "1.01", "1.2", "--order", order)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"order {order} too small for table {table} " in err


def test_eval_F_at_one(capsys):
    code, out, _ = run_cli(capsys, "--precision", "5", "eval", "F", "1.0")
    assert code == EXIT_OK
    assert "3.9348" in out


def test_eval_json_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "eval", "G", "1.0",
                           "--order", "8")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert float(payload[0]["G"]) == pytest.approx(math.sqrt(3.0), rel=1e-5)


@pytest.mark.parametrize("target, arg, want", [
    ("F", "1e16", 1e16), ("F", "1e17", 1e17),
    ("G", "1e300", math.pi * 1e-150), ("JBS", "1e-17", 2e17)])
def test_eval_far_outside_the_window(capsys, target, arg, want):
    # F ~ rho and G ~ pi/sqrt(rho) as rho -> inf, J_BS ~ 2/x as x -> 0
    code, out, err = run_cli(capsys, "--precision", "17", "eval", target, arg)
    assert code == EXIT_OK, err
    value = float(out.strip().splitlines()[1].split(",")[1])
    assert math.isfinite(value)
    assert value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("arg", ["1e-308", "5e-324"])
def test_eval_JBS_where_it_overflows_is_refused(capsys, arg):
    # J_BS ~ 2/x is past the double range: exit 2 naming the bound, no inf
    code, out, err = run_cli(capsys, "eval", "JBS", arg)
    assert code == EXIT_USAGE
    assert "error: JBS_exact needs x > 1.1125369292536007e-308" in err
    assert "inf" not in out


def test_constants_output(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == EXIT_OK
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert float(rows["eta_1"]) == pytest.approx(4.4934, abs=1e-4)
    assert float(rows["d_G"]) == pytest.approx(0.719253, abs=1e-6)
    assert float(rows["rho_x"]) == pytest.approx(3.49295, abs=1e-5)
    assert float(rows["selfcheck_rho_x_inverse"]) == 1.0


def test_asympt_diagnostics(capsys):
    code, out, _ = run_cli(capsys, "asympt", "dJ", "30")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,coeff_exact,coeff_asympt,epsilon,trig_factor"
    assert len(lines) == 30  # n = 2..30


# SHA-256 of `hwkit --precision 17 asympt <family> 100`; the benchmark's
# exact_tables max_rel_err is read off the n = 100 rows
ASYMPT_DIGESTS = {
    "c": "7f4832727484efb52f470180d71038d2352c443d860e5b8c3b7bb725c9a9f850",
    "d": "d041766d47f033685366487c551f2bc0c75f53c50cf03188a159f1e37d53f595",
    "cJ": "8068d257880ac7170dbf8551fb2fb8da23df71ce38bb6fda993379342412c5e8",
    "dJ": "5648a8fa16a7ff0772398f5dc857b3250c9a077506f09be54e1dae6b3f9cf14c",
    "dF": "91b3facb13d2fc0f54b447bdddccbfad206221803843f3682ca36372431f1566",
    "dG": "6125167a9c7e00578b5ce646821d9524c1b9c00ea9793441c5fd6bda823583eb",
}


@pytest.mark.parametrize("argv, digest", [
    *((("--precision", "17", "asympt", family, "100"), digest)
      for family, digest in ASYMPT_DIGESTS.items()),
    (("constants",),
     "1acc7ac4dee51a036ded6f41daba3243561e0b1f332e409988f3afbb0fffc772"),
    (("density", "--t", "0.01", "--mu", "0.0", "--grid", "0.5", "2.0", "41"),
     "3db572430a85068e33313a1c77366fc2c50902094e857428760cef87705bd76b"),
    (("--precision", "17", "price", "table3"),
     "70546dc73131bcdb733dc99ff9053861f00b85343045407c8f0dc0bdef2a4edd")],
    ids=[*ASYMPT_DIGESTS, "constants", "density", "table3"])
def test_output_pinned(capsys, argv, digest):
    # byte for byte; the density line is the README example, and CI
    # checks the table3 prices against the same pin
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,order", [("dF", "0"), ("c", "1"), ("dJ", "-3")])
def test_asympt_order_too_small_is_a_usage_error(capsys, family, order):
    # the rows start at n = 2: a smaller order is refused like coeffs's,
    # not answered with a bare CSV header
    code, out, err = run_cli(capsys, "asympt", family, order)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"order {order} too small for family {family}" in err


def test_theta_both_methods(capsys):
    code1, out1, _ = run_cli(capsys, "theta", "2.0", "0.5", "quadrature")
    code2, out2, _ = run_cli(capsys, "theta", "2.0", "0.5", "asymptotic")
    assert code1 == EXIT_OK and code2 == EXIT_OK
    v1 = float(out1.strip().splitlines()[1].split(",")[3])
    v2 = float(out2.strip().splitlines()[1].split(",")[3])
    assert v1 > 0 and v2 > 0
    assert abs(v1 / v2 - 1.0) < 0.25


def test_theta_refusal_maps_to_numeric_exit(capsys):
    from hwkit.cli import EXIT_NUMERIC
    code, _, err = run_cli(capsys, "theta", "1.0", "0.01", "quadrature")
    assert code == EXIT_NUMERIC
    assert "theta_asympt" in err


def test_domain_outside_the_disk_maps_to_usage_exit(capsys):
    # EvaluatorError is a ValueError: a refused domain is a usage error
    code, _, err = run_cli(capsys, "eval", "F", "1", "--domain", "0.001", "100")
    assert code == EXIT_USAGE
    assert "convergence disk" in err


def test_density_grid(capsys):
    code, out, _ = run_cli(capsys, "density", "--t", "0.01", "--mu", "0.0",
                           "--a", "0.9", "1.0", "1.1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "a,f0"
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(v > 0 for v in vals)
    assert vals[1] == max(vals)


@pytest.mark.parametrize("count", ["0", "-3", "0.5"])
def test_density_grid_without_points_is_a_usage_error(capsys, count):
    # an empty grid is refused, not answered with a bare CSV header
    code, out, err = run_cli(capsys, "density", "--t", "0.01", "--mu", "0.0",
                             "--grid", "0.5", "2", count)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--grid needs N >= 1 points" in err


def test_density_a_needs_values(capsys):
    # a bare --a is refused, not read as "use the default grid"
    with pytest.raises(SystemExit) as exc:
        main(["density", "--t", "0.01", "--mu", "0.0", "--a"])
    assert exc.value.code == EXIT_USAGE


def test_price_scenario_file_and_missing_file(tmp_path, capsys):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(
        [{"S0": 2.0, "r": 0.18, "sigma": 0.30, "T": 1.0, "K": 2.0}]))
    code, out, _ = run_cli(capsys, "price", str(path))
    assert code == EXIT_OK
    row = out.strip().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(0.218388, abs=2e-4)

    code, _, err = run_cli(capsys, "price", str(tmp_path / "nope.json"))
    assert code == EXIT_FILE


def test_price_runaway_integral_exits_numeric(tmp_path, capsys):
    # tau = 1.25: the z window reaches past the order-6 series window,
    # the evaluator jumps at its switch point and node doubling converges
    # only algebraically; the driver's fixed 4 levels stop the marginal's
    # z-integrals at 1024 nodes
    from hwkit.cli import EXIT_NUMERIC
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(
        [{"S0": 2.0, "r": 0.05, "sigma": 1.0, "T": 5.0, "K": 2.0}]))
    code, _, err = run_cli(capsys, "price", str(path))
    assert code == EXIT_NUMERIC
    assert "marginal of log a (tau=1.25, mu=-0.9" in err
    assert "did not converge in 4 levels (1024 nodes)" in err


def test_price_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "price", str(path))
    assert code == EXIT_FILE


_GOOD = {"S0": 2.0, "r": 0.18, "sigma": 0.30, "T": 1.0, "K": 2.0}


@pytest.mark.parametrize("text, match", [
    ("[1, 2]", "scenario 0: TypeError"),
    ('[{"S0": 2.0}, "S0"]', "scenario 0: KeyError('r')"),
    (json.dumps([_GOOD, [2.0, 0.18]]), "scenario 1: TypeError"),
    (json.dumps([_GOOD, dict(_GOOD, sigma=None)]), "scenario 1: TypeError"),
    (json.dumps([dict(_GOOD, T=[1.0])]), "scenario 0: TypeError"),
    (json.dumps([dict(_GOOD, K="two")]), "scenario 0: ValueError"),
    ('[{"S0": 1%s, "r": 0, "sigma": 1, "T": 1, "K": 1}]' % ("0" * 400),
     "scenario 0: OverflowError"),
    (json.dumps(_GOOD), "must hold a JSON array")],
    ids=["int entries", "missing field", "list entry", "null field",
         "list field", "text field", "huge int field", "no array"])
def test_price_malformed_scenario_file(tmp_path, capsys, text, match):
    # a file that is JSON but not an array of numeric scenario objects is
    # a parse error: exit 3 with a message, no traceback
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "price", str(path))
    assert code == EXIT_FILE
    assert out == ""
    assert err.startswith("error: could not parse input: ") and match in err


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "coeffs", "G", "8")
    _, out2, _ = run_cli(capsys, "coeffs", "G", "8")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "constants")
    _, out4, _ = run_cli(capsys, "constants")
    assert out3 == out4


def test_out_file(tmp_path, capsys):
    target = tmp_path / "coeffs.csv"
    code, out, _ = run_cli(capsys, "--out", str(target), "coeffs", "h", "3")
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("n,exact,float")


@pytest.mark.parametrize("argv", [
    ("eval", "F", "1.0"), ("constants",), ("asympt", "dJ", "30"),
    ("density", "--t", "0.01", "--mu", "0.0", "--a", "1.0"),
    ("theta", "2.0", "0.5", "asymptotic"), ("price", "table3")],
    ids=lambda argv: argv[0])
def test_series_format_outside_coeffs_is_refused(capsys, argv):
    # only coeffs has a series form; the others printed CSV and exited 0
    with pytest.raises(SystemExit) as exc:
        main(["--format", "series", *argv])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format series applies to coeffs only" in captured.err


def test_precision_validation(capsys):
    with pytest.raises(SystemExit):
        main(["--precision", "0", "coeffs", "h", "3"])
