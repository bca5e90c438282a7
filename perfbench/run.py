"""The hwkit benchmark: one workload, timed passes, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload strike_ladder --seed 1 --seconds 60 --trace 0

hwkit is imported from the checkout's ``src/``; the command refuses to run
(exit code 2, no result) when that source is missing.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics, taken from
traced passes that alternate with untraced ones.  Earlier lines give the
environment and a readable report.  The exit code is 1 when a correctness
check failed.  NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 15           # set-up probes, spread over the timed run
TAIL_BEYOND = 10          # passes that must lie beyond the tail percentile

# Runs `workloads.setup` in a fresh interpreter; the clock starts before
# hwkit is imported.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.setup({name!r})
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("table3", "strike_ladder", "density_grid", "exact_tables"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(hwkit) -> dict:
    import numpy
    import scipy
    from hwkit import pricing, rational
    workers = getattr(pricing, "_max_workers", None)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "hwkit": getattr(hwkit, "__version__", "?"),
            "HAVE_GMPY2": bool(rational.HAVE_GMPY2),
            "price_scenarios_workers": workers() if workers else None,
            "HWKIT_THREADS": os.environ.get("HWKIT_THREADS")}


def setup_probe(name: str):
    """A callable returning the set-up seconds of one fresh process."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name)

    def probe():
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        return float(proc.stdout.strip().splitlines()[-1])
    return probe


def tail(durations):
    """(value, percentile, passes beyond) of the highest percentile with at
    least TAIL_BEYOND passes beyond it, by nearest rank.

    With fewer than 2 * TAIL_BEYOND + 1 passes that percentile would fall
    below the median, so the upper median is used instead.
    """
    ordered = sorted(durations)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)     # 1-based
    return ordered[rank - 1], 100.0 * rank / n, n - rank


class Run:
    """Passes of one workload, timed, with every output checked."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.notes = []

    def one_pass(self, tracer=None):
        """Run, time and check one pass; returns (seconds, outputs)."""
        self.wl.reset()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = self.wl.run_pass()
                elapsed = time.perf_counter() - t0
            else:
                with tracer.traced_pass(self.wl):
                    t0 = time.perf_counter()
                    out = self.wl.run_pass()
                    elapsed = time.perf_counter() - t0
        except Exception as exc:  # a pass that raises fails all of its items
            self.attempted += self.wl.items
            self.failed += self.wl.items
            self.notes.append(f"pass raised {type(exc).__name__}: {exc}")
            return None, None
        check = self.wl.check(out)
        self.attempted += self.wl.items
        self.failed += check.failed
        self.max_rel_err = max(self.max_rel_err, check.max_rel_err)
        self.notes.extend(check.notes[:5])
        return elapsed, out

    def timed(self, seconds, tracer=None, probe=None):
        """Passes until `seconds` would be exceeded, at least one.

        With a tracer, traced and untraced passes alternate, at least one
        of each.  With `probe`, SETUP_RUNS calls of it are spread evenly
        over the run, between passes, and their time counts toward
        `seconds`.  Returns the untraced durations, (duration, metrics)
        per traced pass, and the probe results.
        """
        import tracing
        plain, traced, setups = [], [], []
        start = time.perf_counter()
        pass_wall = 0.0           # passes and their checks, probes excluded
        while True:
            use_tracer = tracer is not None and len(traced) < len(plain)
            t0 = time.perf_counter()
            elapsed, out = self.one_pass(tracer if use_tracer else None)
            pass_wall += time.perf_counter() - t0
            if elapsed is None:
                break
            if use_tracer:
                m = tracing.layer_metrics(tracer.spans)
                m["series.max_digits"] = self.wl.max_digits(out)
                traced.append((elapsed, m))
            else:
                plain.append(elapsed)
            while probe is not None and len(setups) < min(
                    SETUP_RUNS, SETUP_RUNS * (time.perf_counter() - start) / seconds):
                setups.append(probe())
            spent = time.perf_counter() - start
            per_pass = pass_wall / (len(plain) + len(traced))
            if spent + per_pass > seconds and (tracer is None or traced):
                break
        while probe is not None and len(setups) < SETUP_RUNS:
            setups.append(probe())
        return plain, traced, setups


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hwkit" / "__init__.py").is_file():
        print(f"error: no hwkit source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.pop("HWKIT_THREADS", None)   # measure the shipped default
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import hwkit
    if Path(hwkit.__file__).resolve().parent != (SRC / "hwkit").resolve():
        print(f"error: imported hwkit from {hwkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    env = environment(hwkit)
    print("env " + json.dumps(env))
    evals = workloads.setup(args.workload)
    wl = workloads.WORKLOADS[args.workload](args.seed, evals)
    run = Run(wl)
    run.one_pass()                              # warm-up: caches, lazy set-up
    tracer = tracing.Tracer() if args.trace else None
    probe = setup_probe(args.workload) if args.trace == 0 else None
    plain, traced, setup_times = run.timed(args.seconds, tracer, probe)

    correct = run.failed == 0 and bool(plain)
    print(f"workload {wl.name}  seed {args.seed}  items/pass {wl.items}  "
          f"attempted {run.attempted}  failed {run.failed}  "
          f"failed_frac {run.failed / max(run.attempted, 1):.3g}")
    for note in run.notes[:20]:
        print("check: " + note)
    if not plain:
        print(result_line(False, max(run.attempted, 1), run.failed, {}))
        return 1

    if args.trace == 0:
        value, pct, beyond = tail(plain)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s_p50": (statistics.median(plain), "s"),
            "pass_s_tail": (value, "s"),
            "items_per_s": (wl.items * len(plain) / math.fsum(plain), "1/s"),
            "max_rel_err": (run.max_rel_err, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        quart = statistics.quantiles(plain, n=4) if len(plain) > 1 else plain * 3
        print(f"passes {len(plain)}  pass_s_tail = p{pct:.1f} ({beyond} passes beyond)  "
              f"pass quartiles {' '.join(f'{q:.4g}' for q in quart)} s  "
              f"setup runs {len(setup_times)}: {' '.join(f'{t:.4g}' for t in setup_times)} s")
    else:
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            if name == "trace.overhead":
                value = (statistics.median(d for d, _ in traced)
                         - statistics.median(plain)) if traced else 0.0
            else:
                value = statistics.median(m[name] for _, m in traced) if traced else 0
            metrics[name] = (value, unit)
        print(f"passes {len(plain)} untraced, {len(traced)} traced")
        if traced:
            path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl.gz"
            tracing.write_spans(path, tracer.spans,
                                {"workload": wl.name, "seed": args.seed, "env": env,
                                 "metrics": {k: v for k, (v, _) in metrics.items()}})
            print(f"spans of the last traced pass: {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    print(result_line(correct, run.attempted, run.failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
