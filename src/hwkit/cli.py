"""Command-line surface.

Subcommands map one-to-one onto the library layers: exact coefficient
tables (coeffs), function evaluation (eval), the constants table
(constants), coefficient-asymptotics diagnostics (asympt), density
slices (density), the Hartman-Watson integral (theta) and benchmark
pricing (price).  Output is deterministic: fixed significant-digit
formatting, '.' decimal separator, no locale use.

Exit codes:
  0 success;
  2 usage errors and refused inputs: argparse's own, and every ValueError
    other than a JSON parse error (EvaluatorError for a domain outside the
    convergence disk, SeriesError, non-finite or non-positive inputs);
  3 file and parse errors (missing file, bad JSON, a scenario file that
    is not an array of objects, a missing or non-numeric scenario field);
  4 numeric failures, every RuntimeError: QuadratureError and
    RootSolveError (non-convergence), ThetaSmallTimeError (theta's
    quadrature refuses t < 0.1).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_NUMERIC = 4

_COEFF_FAMILIES = ("h", "h_log", "jbs_omega", "jbs_log", "F", "G")
_ASYMPT_FAMILIES = ("c", "d", "cJ", "dJ", "dF", "dG")
_SCENARIO_KEYS = ("S0", "r", "sigma", "T", "K")


def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}g}"


def _write_out(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(header, rows, fmt, out, precision):
    """Rows of (str|float|int) cells as csv or json, deterministic."""
    def cell(v):
        if isinstance(v, float):
            return _fmt(v, precision)
        return str(v)

    if fmt == "json":
        payload = [dict(zip(header, [cell(v) for v in row])) for row in rows]
        _write_out(json.dumps(payload, indent=2) + "\n", out)
    else:
        lines = [",".join(header)]
        lines += [",".join(cell(v) for v in row) for row in rows]
        _write_out("\n".join(lines) + "\n", out)


def _order_too_small(order: int, family: str, min_order: int) -> bool:
    """Report an order below the family's minimum on stderr."""
    if order >= min_order:
        return False
    print(f"error: order {order} too small for family {family} "
          f"(need >= {min_order})", file=sys.stderr)
    return True


# -- subcommands -----------------------------------------------------------------

def cmd_coeffs(args) -> int:
    from . import tables
    from .series import series_to_text

    n = args.order
    fam = args.family
    if _order_too_small(n, fam, 2 if fam.startswith("jbs") else 1):
        return EXIT_USAGE
    builders = {
        "h": lambda: tables.coeffs_h(n),
        "h_log": lambda: tables.coeffs_h_log(n),
        "jbs_omega": lambda: tables.coeffs_jbs(n, "omega"),
        "jbs_log": lambda: tables.coeffs_jbs(n, "log"),
        "F": lambda: tables.coeffs_F(n),
        "G": lambda: tables.coeffs_G(n),
    }
    ser = builders[fam]()
    if args.format == "series":
        _write_out(series_to_text(ser), args.out)
        return EXIT_OK
    rows = [(i, f"{c.numerator}/{c.denominator}", float(c))
            for i, c in enumerate(ser.coeffs)]
    _emit_rows(("n", "exact", "float"), rows, args.format, args.out,
               args.precision)
    return EXIT_OK


def cmd_eval(args) -> int:
    from .evaluate import make_evaluator

    domain = tuple(args.domain) if args.domain else None
    kwargs = {"domain": domain} if domain else {}
    ev = make_evaluator(args.target, args.order, **kwargs)
    rows = [(v, float(ev(v))) for v in args.values]
    _emit_rows(("arg", args.target), rows, args.format, args.out, args.precision)
    return EXIT_OK


def cmd_constants(args) -> int:
    from .asympt import asymptotic_constants, puiseux_data
    from .exact import critical_points, singularity_distance

    table = critical_points(args.count)
    pd = puiseux_data()
    ac = asymptotic_constants()
    rows = []
    for k, eta, z, omega in table.entries:
        rows.append((f"eta_{k}", eta))
        rows.append((f"z_{k}", z))
        rows.append((f"omega_{k}", omega))
        rows.append((f"logdist_{k}", singularity_distance(k, table)))
    rows += [("rho_x", table.rho_x), ("theta_x", table.theta_x),
             ("C1", pd.C1), ("C2", pd.C2),
             ("C32_J", pd.C32_J), ("C32_F", pd.C32_F),
             ("c_inf", ac.c_inf), ("d_inf", ac.d_inf),
             ("d_J", ac.d_J), ("d_F", ac.d_F), ("d_G", ac.d_G),
             ("selfcheck_rho_x_inverse", table.rho_x * (1.0 / table.rho_x))]
    _emit_rows(("name", "value"), rows, args.format, args.out,
               max(args.precision, 10))
    return EXIT_OK


def cmd_asympt(args) -> int:
    from .asympt import diagnostic_epsilon

    # the diagnostics start at n = 2, so a smaller order has no rows
    if _order_too_small(args.order, args.family, 2):
        return EXIT_USAGE
    rows = diagnostic_epsilon(args.family, args.order)
    _emit_rows(("n", "coeff_exact", "coeff_asympt", "epsilon", "trig_factor"),
               rows, args.format, args.out, args.precision)
    return EXIT_OK


def cmd_density(args) -> int:
    from .pricing import default_evaluators, f0_density, norm_direct

    if args.a is None and args.grid[2] < 1:
        print(f"error: --grid needs N >= 1 points, got {args.grid[2]:g}",
              file=sys.stderr)
        return EXIT_USAGE
    F_eval, G_eval = default_evaluators(args.order)
    norm = norm_direct(args.t, args.mu, F_eval, G_eval)
    if args.a:
        grid = args.a
    else:
        lo, hi, count = args.grid
        grid = [math.exp(x) for x in
                _linspace(math.log(lo), math.log(hi), int(count))]
    rows = [(a, f0_density(a, args.t, args.mu, F_eval, G_eval, norm=norm))
            for a in grid]
    _emit_rows(("a", "f0"), rows, args.format, args.out, args.precision)
    return EXIT_OK


def cmd_theta(args) -> int:
    from .hartman import theta_asympt, theta_hw

    if args.method == "quadrature":
        val = theta_hw(args.r, args.t)
    else:
        val = theta_asympt(args.r * args.t, args.t)
    rows = [(args.r, args.t, args.method, val)]
    _emit_rows(("r", "t", "method", "theta"), rows, args.format, args.out,
               args.precision)
    return EXIT_OK


def _scenario_rows(results, scenarios):
    from .pricing import ReducedParams

    rows = []
    for i, (s, res) in enumerate(zip(scenarios, results), start=1):
        rp = ReducedParams.from_scenario(s)
        rows.append((i, rp.mu, rp.tau, res.c_reduced, res.norm, res.price))
    return rows


class ScenarioFileError(Exception):
    """A scenario file that is JSON but does not hold scenarios."""


def _load_scenarios(path):
    """Scenarios from a JSON array of objects with numeric S0, r, sigma, T
    and K, else ScenarioFileError."""
    from .pricing import Scenario

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ScenarioFileError("scenario file must hold a JSON array")
    scenarios = []
    for i, d in enumerate(data):
        try:
            fields = {key: float(d[key]) for key in _SCENARIO_KEYS}
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ScenarioFileError(f"scenario {i}: {e!r}") from None
        scenarios.append(Scenario(**fields))
    return scenarios


def cmd_price(args) -> int:
    from .pricing import TABLE3_SCENARIOS, default_evaluators, price_scenarios

    scenarios = (list(TABLE3_SCENARIOS) if args.scenarios == "table3"
                 else _load_scenarios(args.scenarios))
    domain = tuple(args.domain) if args.domain else None
    kwargs = {"domain": domain} if domain else {}
    F_eval, G_eval = default_evaluators(args.order, **kwargs)
    results = price_scenarios(scenarios, F_eval, G_eval)
    rows = _scenario_rows(results, scenarios)
    _emit_rows(("scenario", "mu", "tau", "c_A", "n_tau", "C_A"), rows,
               args.format, args.out, args.precision)
    return EXIT_OK


def _linspace(a, b, n):
    if n == 1:
        return [a]
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n)]


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hwkit",
        description="Small-time gBM time-average asymptotics: exact series "
                    "tables, Hartman-Watson evaluation, Asian benchmark pricing")
    p.add_argument("--format", default="csv", choices=("csv", "json", "series"),
                   help="output format (series only for coeffs)")
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--precision", type=int, default=6,
                   help="significant digits for floats (1..17)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="exact rational coefficient tables")
    sp.add_argument("family", choices=_COEFF_FAMILIES)
    sp.add_argument("order", type=int)
    sp.set_defaults(fn=cmd_coeffs)

    sp = sub.add_parser("eval", help="evaluate F, G or J_BS")
    sp.add_argument("target", choices=("F", "G", "JBS"))
    sp.add_argument("values", type=float, nargs="+")
    sp.add_argument("--order", type=int, default=24)
    sp.add_argument("--domain", type=float, nargs=2, default=None)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("constants", help="critical points and asymptotic constants")
    sp.add_argument("--count", type=int, default=5)
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("asympt", help="coefficient-asymptotics diagnostics")
    sp.add_argument("family", choices=_ASYMPT_FAMILIES)
    sp.add_argument("order", type=int)
    sp.set_defaults(fn=cmd_asympt)

    sp = sub.add_parser("density", help="leading density f0 on a grid")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--a", type=float, nargs="+", default=None)
    sp.add_argument("--grid", type=float, nargs=3, default=(0.5, 2.0, 21),
                    metavar=("LO", "HI", "N"))
    sp.add_argument("--order", type=int, default=6)
    sp.set_defaults(fn=cmd_density)

    sp = sub.add_parser("theta", help="Hartman-Watson integral")
    sp.add_argument("r", type=float)
    sp.add_argument("t", type=float)
    sp.add_argument("method", choices=("quadrature", "asymptotic"))
    sp.set_defaults(fn=cmd_theta)

    sp = sub.add_parser("price", help="price the benchmark scenarios")
    sp.add_argument("scenarios",
                    help="'table3' for the built-in benchmark set, "
                         "or a JSON file of {S0,r,sigma,T,K} objects")
    sp.add_argument("--order", type=int, default=6)
    sp.add_argument("--domain", type=float, nargs=2, default=None)
    sp.set_defaults(fn=cmd_price)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.precision <= 17:
        parser.error("--precision must be in [1, 17]")
    try:
        return args.fn(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FILE
    except (json.JSONDecodeError, ScenarioFileError) as e:
        print(f"error: could not parse input: {e}", file=sys.stderr)
        return EXIT_FILE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
