#!/usr/bin/env python3
"""Price the seven standard Asian-option benchmark scenarios.

Writes the benchmark table (scenario id, mu, tau, c_A, n(tau), C_A) next
to the spectral reference values and the deviations, as CSV to stdout or
--out.  Equivalent to `hwkit price table3` plus the comparison columns.
"""

import argparse
import sys
import time

from hwkit.pricing import (SPECTRAL_BENCHMARKS, TABLE3_SCENARIOS, ReducedParams,
                           default_evaluators, price_scenarios)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=6)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    F_eval, G_eval = default_evaluators(args.order)
    t0 = time.time()
    results = price_scenarios(list(TABLE3_SCENARIOS), F_eval, G_eval)
    elapsed = time.time() - t0

    lines = ["scenario,mu,tau,c_A,n_tau,C_A,spectral,abs_diff,rel_diff"]
    for i, (s, res, spec) in enumerate(
            zip(TABLE3_SCENARIOS, results, SPECTRAL_BENCHMARKS), start=1):
        rp = ReducedParams.from_scenario(s)
        lines.append(
            f"{i},{rp.mu:.6g},{rp.tau:.6g},{res.c_reduced:.6f},"
            f"{res.norm:.5f},{res.price:.6f},{spec:.6f},"
            f"{abs(res.price - spec):.2e},{abs(res.price / spec - 1):.2e}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# priced 7 scenarios at order {args.order} in {elapsed:.2f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
