#!/usr/bin/env python3
"""Coefficient-asymptotics diagnostics for plotting.

Emits, per family, the CSV table (n, coeff_exact, coeff_asympt, epsilon,
trig_factor) up to a requested order, plus a summary of the root-test
medians against the reciprocal convergence radii 1/R.  The summary gives
the raw median of |a_n|^{1/n} and, beside it, the power-corrected median
of |a_n n^p|^{1/n}, with p the family's n^{-p} damping exponent; the
latter is the quantity acceptance criterion 3 bounds.  Both tend to 1/R
(Cauchy-Hadamard), but the raw one only like (p log n)/n, which leaves it
~9% low for dJ/dF at n <= 100.  The epsilon outliers line up with
near-zeros of the oscillatory factor; plot epsilon against the trig
factor to see it.
"""

import argparse
import pathlib
import statistics
import sys

from hwkit.asympt import (DAMPING, FAMILIES, convergence_radius,
                          diagnostic_epsilon, epsilon_csv, exact_family_floats)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=100)
    ap.add_argument("--families", nargs="*", default=list(FAMILIES))
    ap.add_argument("--outdir", default="diagnostics")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for fam in args.families:
        rows = diagnostic_epsilon(fam, args.order)
        path = outdir / f"epsilon_{fam}.csv"
        path.write_text(epsilon_csv(rows))
        msg = f"{fam}: wrote {path}"
        if fam in DAMPING:      # cJ is undamped: its coefficients tend to +-2
            vals = exact_family_floats(fam, args.order)
            lo = max(2, args.order - 20)
            window = range(lo, args.order + 1)
            p = DAMPING[fam]
            med = statistics.median(abs(vals[n]) ** (1.0 / n) for n in window)
            cor = statistics.median((abs(vals[n]) * n ** p) ** (1.0 / n)
                                    for n in window)
            lim = 1.0 / convergence_radius(fam)
            msg += (f"; root-test median over [{lo},{args.order}] = {med:.5f}"
                    f" (dev {med / lim - 1:+.4f}), power-corrected (p = {p})"
                    f" = {cor:.5f} (dev {cor / lim - 1:+.4f})"
                    f" vs limit {lim:.5f}")
        print(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
