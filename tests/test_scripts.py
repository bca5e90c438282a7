"""The scripts under scripts/, run as a user runs them."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hwkit.cli import EXIT_OK, main
from hwkit.evaluate import truncation_error_profile

ROOT = Path(__file__).resolve().parents[1]


def test_run_table3_matches_cli_price(capsys):
    # the script prices the same batch as `hwkit price table3`; its
    # columns are the CLI's values printed to fixed decimals
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts/run_table3.py")],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    script = list(csv.DictReader(io.StringIO(proc.stdout)))

    assert main(["--precision", "17", "price", "table3"]) == EXIT_OK
    cli = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(script) == len(cli) == 7
    for s, c in zip(script, cli):
        assert s["scenario"] == c["scenario"]
        assert s["c_A"] == f"{float(c['c_A']):.6f}"
        assert s["n_tau"] == f"{float(c['n_tau']):.5f}"
        assert s["C_A"] == f"{float(c['C_A']):.6f}"


def _run_script(name, *args, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)


def test_truncation_profile_matches_a_direct_profile():
    # the script's order-6 row is truncation_error_profile on its default
    # grid and window, printed to fixed digits
    proc = _run_script("truncation_profile.py", "--target", "G")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert proc.stdout.splitlines()[0] == "order,max_abs_err,argmax_rho"
    assert [r["order"] for r in rows] == ["6", "12", "20", "30", "40"]

    grid = np.geomspace(0.05, 20.0, 60)
    per_order, per_point = truncation_error_profile(
        "G", [6], grid, domain=(grid.min() * 0.999, grid.max() * 1.001))
    rho_star = max(per_point[6], key=lambda t: t[1])[0]
    assert rows[0]["max_abs_err"] == f"{per_order[6]:.3e}"
    assert rows[0]["argmax_rho"] == f"{rho_star:.4f}"


def test_coeff_diagnostics_writes_every_family(tmp_path):
    proc = _run_script("coeff_diagnostics.py", "--outdir", str(tmp_path / "out"),
                       cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    families = ("c", "d", "cJ", "dJ", "dF", "dG")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        f"epsilon_{fam}.csv" for fam in families)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    for fam in families:
        lines = (tmp_path / "out" / f"epsilon_{fam}.csv").read_text().splitlines()
        assert lines[0] == "n,coeff_exact,coeff_asympt,epsilon,trig_factor"
        assert len(lines) == 100    # n = 2..100
    for fam, line in zip(families, proc.stdout.splitlines()):
        assert line.startswith(f"{fam}: wrote ")
