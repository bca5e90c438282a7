"""The scripts under scripts/, run as a user runs them."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

from hwkit.cli import EXIT_OK, main

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
