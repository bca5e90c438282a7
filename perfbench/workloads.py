"""The benchmark's four workloads: inputs, one pass, and the checks on it.

Every workload calls hwkit only through module attributes looked up at
call time (``self.pricing.price_scenarios``, ``self.tables.coeffs_F``), so
the traced run can swap those bindings for timing wrappers.

Inputs stay inside 0.0025 <= tau <= 0.125 and are finite; see NOTES.md
for the two known defects outside that envelope.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

import numpy as np

ORDER = 6                 # the shipped pricing order (hwkit.pricing.PRICING_ORDER)
TAU_MIN, TAU_MAX = 0.0025, 0.125

# table3: the seed's dollar prices, gated to 1e-9 relative
SEED_PRICES = (0.05598604150798888, 0.21838752997214042, 0.17226870314244574,
               0.1931735202040909, 0.24641539197334947, 0.30622004031338673,
               0.35009259961986977)
SPECTRAL_GATE = 1e-5      # worst seed deviation from the spectral prices: 6.86e-6
SEED_GATE = 1e-9

# strike_ladder: seeded strikes at the (tau, mu) of table3 scenarios 1, 3, 5
LADDER_BASES = (0, 2, 4)
LADDER_STRIKES = 17
LADDER_K = (1.6, 2.4)
PARITY_GATE = 1e-6        # seed: 1e-14
VALUE_TOL = 1e-9          # quadrature target, relative to the largest value
SLOPE_TOL = 1e-6          # slope error bound: 2 * value error / smallest strike gap

# density_grid: Gauss-Legendre nodes in log a at table3 scenarios 1, 3, 7
DENSITY_BASES = (0, 2, 6)
DENSITY_NODES = 160
NORM_GATE = 1e-6          # seed: 1.2e-14

# exact_tables: order-100 tables, SHA-256 of series_to_text at the seed
EXACT_ORDER = 100
TABLE_DIGESTS = {
    "h": "4f8570d992bd7a4a69ec42187bbb062a34959c550d661cc7ac6038f88a2de0a3",
    "jbs_log": "1ad68bafaba5dde3895fabd9da368a6bbbf9cb6c3989209f47349be76bc34f01",
    "F": "9ed8722abca266154c60c7e7333619277fce0baf91957e70645b2c6231e653e8",
    "G": "1a1b5507b063acc29cd8a7fcbcfc1ac8b7380ed55397df4dfd1b172c5515c9bf",
}
H_LEADING = ("0", "6", "-9/5", "144/175")
# coefficient-asymptotics family of each table (hwkit.asympt naming)
TABLE_FAMILIES = {"h": "c", "jbs_log": "dJ", "F": "dF", "G": "dG"}


def setup(name: str):
    """Import hwkit and build what a pass of `name` needs.

    Returns the (F, G) evaluators, or None for exact_tables, which needs
    nothing beyond the import.  Building the evaluators also computes the
    lazy asympt constants; the two closed-form calls at rho = 1 fill the
    guard tables that the closed forms use near the expansion point.
    """
    import hwkit
    if name == "exact_tables":
        return None
    from hwkit.evaluate import DEFAULT_DOMAIN
    F = hwkit.make_evaluator("F", ORDER, DEFAULT_DOMAIN)
    G = hwkit.make_evaluator("G", ORDER, DEFAULT_DOMAIN)
    hwkit.exact.F_exact(1.0)
    hwkit.exact.G_exact(1.0)
    return F, G


class Workload:
    """One pass over fixed inputs; subclasses set `name` and `items`."""

    name = ""
    items = 0

    def reset(self):
        """Untimed preparation before each pass; most workloads need none."""

    def max_digits(self, out) -> int:
        """Most decimal digits in a denominator of the pass's exact tables."""
        return 0

    def all_failed(self, note: str) -> "Check":
        """A pass whose output has the wrong shape fails every item."""
        return Check(self.items, 0.0, [note])


@dataclass
class Check:
    """Outcome of checking one pass: failed items and the worst deviation."""

    failed: int
    max_rel_err: float
    notes: list = field(default_factory=list)


def _reduced(scenario):
    from hwkit.pricing import ReducedParams
    return ReducedParams.from_scenario(scenario)


class Table3(Workload):
    """The seven standard scenarios, calls only, at the shipped defaults."""

    name = "table3"

    def __init__(self, seed: int, evals):
        from hwkit import pricing
        self.pricing = pricing
        self.F, self.G = evals
        self.scenarios = tuple(pricing.TABLE3_SCENARIOS)
        self.spectral = tuple(pricing.SPECTRAL_BENCHMARKS)
        self.items = len(self.scenarios)

    def run_pass(self):
        return self.pricing.price_scenarios(self.scenarios, self.F, self.G)

    @staticmethod
    def values(out):
        return [r.price for r in out]

    def check(self, out) -> Check:
        if len(out) != self.items:
            return self.all_failed(f"{len(out)} prices for {self.items} scenarios")
        failed, worst, notes = 0, 0.0, []
        for i, (r, ref, seed_px) in enumerate(zip(out, self.spectral, SEED_PRICES)):
            dev = abs(r.price / ref - 1.0)
            worst = max(worst, dev)
            if not (dev <= SPECTRAL_GATE and abs(r.price / seed_px - 1.0) <= SEED_GATE):
                failed += 1
                notes.append(f"scenario {i + 1}: price {r.price!r}")
        return Check(failed, worst, notes)


def ladder_scenarios(seed: int):
    """LADDER_STRIKES seeded strikes at each of the LADDER_BASES scenarios."""
    from hwkit import pricing
    strikes = ladder_strikes(seed)
    bases = [pricing.TABLE3_SCENARIOS[b] for b in LADDER_BASES]
    return tuple(pricing.Scenario(b.S0, b.r, b.sigma, b.T, K)
                 for b in bases for K in strikes)


def ladder_strikes(seed: int):
    """One strike per equal cell of LADDER_K, jittered inside its middle half.

    Keeping strikes at least half a cell apart keeps the convexity
    check's slope differences far above the quadrature error.
    """
    rng = random.Random(seed)
    lo, hi = LADDER_K
    width = (hi - lo) / LADDER_STRIKES
    return [lo + (i + 0.25 + 0.5 * rng.random()) * width
            for i in range(LADDER_STRIKES)]


class StrikeLadder(Workload):
    """Seeded strikes at three table3 (tau, mu), calls and puts, one batch."""

    name = "strike_ladder"

    def __init__(self, seed: int, evals):
        from hwkit import pricing
        self.pricing = pricing
        self.F, self.G = evals
        self.scenarios = ladder_scenarios(seed)
        self.items = len(self.scenarios)
        self.ks = [_reduced(s).k for s in self.scenarios]
        # reduced mean and norm_direct per (tau, mu), for the parity check
        self.groups = []      # (first index, tau, mu, reduced mean, norm_direct)
        for first in range(0, self.items, LADDER_STRIKES):
            rp = _reduced(self.scenarios[first])
            mean = pricing.reduced_mean(rp.tau, rp.mu, self.F, self.G)
            nd = pricing.norm_direct(rp.tau, rp.mu, self.F, self.G)
            self.groups.append((first, rp.tau, rp.mu, mean, nd))

    def run_pass(self):
        return self.pricing.price_scenarios(self.scenarios, self.F, self.G,
                                            with_put=True)

    @staticmethod
    def values(out):
        return [v for r in out for v in (r.c_reduced, r.p_reduced, r.norm)]

    def check(self, out) -> Check:
        if len(out) != self.items:
            return self.all_failed(f"{len(out)} results for {self.items} scenarios")
        bad, worst, notes = set(), 0.0, []
        for first, tau, mu, mean, nd in self.groups:
            idx = range(first, first + LADDER_STRIKES)
            ks = self.ks[first:first + LADDER_STRIKES]
            c = [out[i].c_reduced for i in idx]
            p = [out[i].p_reduced for i in idx]
            exact_mean = self.pricing.exact_mean(tau, mu)
            for j, i in enumerate(idx):
                parity = abs((c[j] - p[j]) / nd - (mean / nd - ks[j]))
                if not parity <= PARITY_GATE:
                    bad.add(i)
                    notes.append(f"scenario {i}: parity residual {parity:.3g}")
                implied = (c[j] - p[j]) / out[i].norm + ks[j]
                worst = max(worst, abs(implied / exact_mean - 1.0))
            tol = VALUE_TOL * max(max(c), max(p))
            for j in range(1, len(ks)):
                if not (c[j] <= c[j - 1] + tol and p[j] >= p[j - 1] - tol):
                    bad.add(first + j)
                    notes.append(f"scenario {first + j}: not monotone in k")
            for name, vals in (("call", c), ("put", p)):
                slopes = [(vals[j] - vals[j - 1]) / (ks[j] - ks[j - 1])
                          for j in range(1, len(ks))]
                for j in range(1, len(slopes)):
                    if not slopes[j] >= slopes[j - 1] - SLOPE_TOL:
                        bad.add(first + j)
                        notes.append(f"scenario {first + j}: {name} not convex in k")
        return Check(len(bad), worst, notes)


def density_pairs():
    """(tau, mu) of the DENSITY_BASES scenarios."""
    from hwkit import pricing
    return [(rp.tau, rp.mu) for rp in
            (_reduced(pricing.TABLE3_SCENARIOS[b]) for b in DENSITY_BASES)]


def density_nodes(tau: float, mu: float):
    """Gauss-Legendre nodes and weights in log a, wide enough for the mass."""
    half = 16.0 * math.sqrt(tau) + 4.0 * tau * abs(mu + 1.0)
    x, w = np.polynomial.legendre.leggauss(DENSITY_NODES)
    return half * x, half * w


class DensityGrid(Workload):
    """f0_density on a log-a grid at three table3 (tau, mu), norm passed in."""

    name = "density_grid"

    def __init__(self, seed: int, evals):
        from hwkit import pricing
        self.pricing = pricing
        self.F, self.G = evals
        self.pairs = []       # (tau, mu, norm, log-a nodes, weights, a values)
        for tau, mu in density_pairs():
            norm = pricing.norm_factor(tau, mu, self.F, self.G)
            x, w = density_nodes(tau, mu)
            self.pairs.append((tau, mu, norm, x, w, [math.exp(float(v)) for v in x]))
        self.items = DENSITY_NODES * len(self.pairs)

    def run_pass(self):
        return [[self.pricing.f0_density(a, tau, mu, self.F, self.G, norm=norm)
                 for a in grid] for tau, mu, norm, _, _, grid in self.pairs]

    @staticmethod
    def values(out):
        return [v for row in out for v in row]

    def check(self, out) -> Check:
        if [len(row) for row in out] != [DENSITY_NODES] * len(self.pairs):
            return self.all_failed(f"row lengths {[len(row) for row in out]}")
        failed, worst, notes = 0, 0.0, []
        for (tau, mu, _, x, w, _), row in zip(self.pairs, out):
            f = np.asarray(row, dtype=float)
            total = float(np.dot(f, w))
            mean = float(np.dot(f * np.exp(x), w))
            worst = max(worst, abs(mean / self.pricing.exact_mean(tau, mu) - 1.0))
            if not (np.all(np.isfinite(f)) and np.all(f >= 0.0)
                    and abs(total - 1.0) <= NORM_GATE):
                failed += len(row)
                notes.append(f"tau={tau}: integral of f0 da/a = {total!r}")
        return Check(failed, worst, notes)


class ExactTables(Workload):
    """Cold order-100 builds of the h, J_BS (log), F and G tables."""

    name = "exact_tables"

    def __init__(self, seed: int, evals):
        from hwkit import series, tables
        self.tables = tables
        self.series = series
        self.items = len(TABLE_DIGESTS) * (EXACT_ORDER + 1)

    def reset(self):
        """Empty the table cache, so the pass builds every table from scratch."""
        with self.tables._cache_lock:
            self.tables._cache.clear()

    def run_pass(self):
        t = self.tables
        return {"h": t.coeffs_h(EXACT_ORDER),
                "jbs_log": t.coeffs_jbs(EXACT_ORDER, "log"),
                "F": t.coeffs_F(EXACT_ORDER),
                "G": t.coeffs_G(EXACT_ORDER)}

    def values(self, out):
        return [self.series.series_to_text(out[k]) for k in TABLE_DIGESTS]

    def max_digits(self, out) -> int:
        return max(len(str(c.denominator)) for t in out.values() for c in t.coeffs)

    def check(self, out) -> Check:
        from hwkit import asympt
        from hwkit.rational import rat
        if sorted(out) != sorted(TABLE_DIGESTS):
            return self.all_failed(f"tables {sorted(out)}")
        bad, worst = set(), 0.0
        for name, digest in TABLE_DIGESTS.items():
            text = self.series.series_to_text(out[name])
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                bad.add(name)
        if tuple(out["h"].coeffs[:4]) != tuple(rat(c) for c in H_LEADING):
            bad.add("h")
        # The tables are exact, so their deviation from the digests is 0; the
        # float reference is the paper's coefficient asymptotics at n = order.
        for name, family in TABLE_FAMILIES.items():
            eps = asympt.diagnostic_epsilon(family, EXACT_ORDER, EXACT_ORDER)[-1][3]
            worst = max(worst, abs(eps))
        return Check(len(bad) * (EXACT_ORDER + 1), worst,
                     [f"table {name}: differs from the seed" for name in sorted(bad)])


WORKLOADS = {w.name: w for w in (Table3, StrikeLadder, DensityGrid, ExactTables)}


def float_inputs(name: str, seed: int):
    """(tau, mu, k or a) of every priced scenario or density point of a
    workload, without building anything; exact_tables has none."""
    from hwkit import pricing
    if name == "table3":
        return [(r.tau, r.mu, r.k) for r in map(_reduced, pricing.TABLE3_SCENARIOS)]
    if name == "strike_ladder":
        return [(r.tau, r.mu, r.k) for r in map(_reduced, ladder_scenarios(seed))]
    if name == "density_grid":
        return [(tau, mu, math.exp(float(x))) for tau, mu in density_pairs()
                for x in density_nodes(tau, mu)[0]]
    return []
