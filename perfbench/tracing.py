"""Outside-in tracing of hwkit's layers for the benchmark's traced run.

The tracer swaps module attributes for timing wrappers at the binding each
caller looks up at call time (``hwkit.evaluate`` calls ``exact.F_exact``,
``hwkit.exact`` calls its own ``solve_kappa``, ``hwkit.pricing`` calls its
own ``bessel_k_scaled`` ...), and wraps the evaluators the benchmark
passes in.  No hwkit source changes.  Each call records one span:
(id, name, start, end, parent, thread, note, failed).  Spans stay in
memory; `layer_metrics` reduces one pass's spans to the per-layer
metrics and `write_spans` writes them out when the run ends.

A span's parent is the innermost open span of its own thread.  A thread
with no open span (a price_scenarios pool worker) takes the innermost
open span of the thread that opened the pass, which is the call that
submitted the work.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name); the module is the one whose code calls it
TARGETS = (
    ("hwkit.exact", "F_exact", "exact.F_exact"),
    ("hwkit.exact", "G_exact", "exact.G_exact"),
    ("hwkit.exact", "solve_kappa", "roots.solve_kappa"),
    ("hwkit.exact", "solve_lambda", "roots.solve_lambda"),
    ("hwkit.exact", "solve_xi", "roots.solve_xi"),
    ("hwkit.exact", "solve_zeta", "roots.solve_zeta"),
    ("hwkit.exact", "solve_tan_eta", "roots.solve_tan_eta"),
    ("hwkit.pricing", "bessel_k_scaled", "bessel.k_scaled"),
    ("hwkit.bessel", "integrate", "bessel.integrate"),
    ("hwkit.pricing", "gauss_legendre_nodes", "quadrature.gauss_legendre_nodes"),
    ("hwkit.pricing", "price_scenarios", "pricing.price_scenarios"),
    ("hwkit.pricing", "price_scenario", "pricing.price_scenario"),
    ("hwkit.pricing", "norm_factor", "pricing.norm_factor"),
    ("hwkit.pricing", "price_call_reduced", "pricing.call"),
    ("hwkit.pricing", "price_put_reduced", "pricing.put"),
    ("hwkit.pricing", "f0_density", "pricing.f0"),
    ("hwkit.tables", "coeffs_h", "tables.coeffs_h"),
    ("hwkit.tables", "coeffs_jbs", "tables.coeffs_jbs"),
    ("hwkit.tables", "coeffs_F", "tables.coeffs_F"),
    ("hwkit.tables", "coeffs_G", "tables.coeffs_G"),
    ("hwkit.tables", "series_compose", "series.compose"),
    ("hwkit.tables", "series_div", "series.div"),
    ("hwkit.tables", "series_sqrt", "series.sqrt"),
    ("hwkit.tables", "revert_series", "series.revert"),
    ("hwkit.series", "series_compose", "series.compose"),
    ("hwkit.series", "series_div", "series.div"),
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("evaluate.points", "count", "lower"),
    ("evaluate.outer_points", "count", "lower"),
    ("evaluate.series_ratio", "ratio", "higher"),
    ("evaluate.self_s", "s", "lower"),
    ("exact.calls", "count", "lower"),
    ("exact.busy_s", "s", "lower"),
    ("roots.calls", "count", "lower"),
    ("roots.busy_s", "s", "lower"),
    ("roots.failed", "count", "lower"),
    ("bessel.calls", "count", "lower"),
    ("bessel.busy_s", "s", "lower"),
    ("bessel.quad_calls", "count", "lower"),
    ("quadrature.node_requests", "count", "lower"),
    ("quadrature.max_nodes", "count", "lower"),
    ("quadrature.nodes_total", "count", "lower"),
    ("quadrature.busy_s", "s", "lower"),
    ("pricing.norm_calls", "count", "lower"),
    ("pricing.norm_repeats", "count", "lower"),
    ("pricing.call_s", "s", "lower"),
    ("pricing.put_s", "s", "lower"),
    ("pricing.f0_s", "s", "lower"),
    ("pricing.self_s", "s", "lower"),
    ("series.compose_calls", "count", "lower"),
    ("series.compose_s", "s", "lower"),
    ("series.div_s", "s", "lower"),
    ("series.sqrt_s", "s", "lower"),
    ("series.revert_s", "s", "lower"),
    ("series.max_digits", "count", "lower"),
    ("tables.busy_s", "s", "lower"),
    ("trace.overhead", "s", "lower"),
)


def _note_gl_nodes(a, b, n, *args, **kwargs):
    return int(n)


def _note_norm(tau, mu, *args, **kwargs):
    return (float(tau), float(mu))


NOTES = {"quadrature.gauss_legendre_nodes": _note_gl_nodes,
         "pricing.norm_factor": _note_norm}


def _note_points(evaluator):
    """(points, points outside the series window) of one evaluator call."""
    lo, hi = evaluator.log_lo, evaluator.log_hi

    def note(rho, *args, **kwargs):
        y = np.log(np.asarray(rho, dtype=float))
        return (int(y.size), int(np.count_nonzero((y < lo) | (y > hi))))
    return note


class Tracer:
    """Installs the wrappers for one pass at a time and keeps its spans."""

    def __init__(self):
        self.spans = []
        self._saved = []        # (object, attribute, original binding)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._root_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, note=None):
        spans, ids, now = self.spans, self._ids, time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            info = note(*args, **kwargs) if note is not None else None
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root else self._root
            sid = next(ids)
            stack.append(sid)
            failed = False
            t0 = now()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = now()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, get_ident(), info, failed))
        traced.__wrapped__ = fn
        return traced

    def _replace(self, obj, attr, wrapper):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def install(self, workload):
        """Wrap every target and the workload's F/G evaluators.

        A target hwkit lacks raises AttributeError, with every binding put
        back: a renamed binding would otherwise read as zero work.
        """
        try:
            for modname, attr, name in TARGETS:
                mod = importlib.import_module(modname)
                self._replace(mod, attr,
                              self._wrap(getattr(mod, attr), name, NOTES.get(name)))
            for attr in ("F", "G"):
                ev = getattr(workload, attr, None)
                if ev is not None:
                    self._replace(workload, attr,
                                  self._wrap(ev, f"evaluate.{attr}", _note_points(ev)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Put every original binding back, last replaced first."""
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    @contextmanager
    def traced_pass(self, workload):
        """Trace one pass: fresh spans, wrappers in, a root span, wrappers out."""
        self.spans.clear()
        self.install(workload)
        stack = self._stack()
        self._root = next(self._ids)
        self._root_stack = stack
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.uninstall()
            self._root_stack = []
            self.spans.append((self._root, "pass", t0, t1, 0,
                               threading.get_ident(), None, False))


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (trace.overhead excepted)."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))

    def self_time(s):
        return (s[3] - s[2]) - _covered(s[2], s[3], children.get(s[0], ()))

    m = {name: 0 for name, _, _ in PER_LAYER if name != "trace.overhead"}
    norms_seen = set()
    for s in sorted(spans, key=lambda s: s[2]):
        name, dur, info = s[1], s[3] - s[2], s[6]
        layer = name.split(".", 1)[0]
        if layer == "evaluate":
            m["evaluate.points"] += info[0]
            m["evaluate.outer_points"] += info[1]
            m["evaluate.self_s"] += self_time(s)
        elif layer == "exact":
            m["exact.calls"] += 1
            m["exact.busy_s"] += dur
        elif layer == "roots":
            m["roots.calls"] += 1
            m["roots.busy_s"] += dur
            m["roots.failed"] += s[7]
        elif name == "bessel.k_scaled":
            m["bessel.calls"] += 1
            m["bessel.busy_s"] += dur
        elif name == "bessel.integrate":
            m["bessel.quad_calls"] += 1
        elif layer == "quadrature":
            m["quadrature.node_requests"] += 1
            m["quadrature.max_nodes"] = max(m["quadrature.max_nodes"], info)
            m["quadrature.nodes_total"] += info
            m["quadrature.busy_s"] += dur
        elif layer == "pricing":
            m["pricing.self_s"] += self_time(s)
            if name == "pricing.norm_factor":
                m["pricing.norm_calls"] += 1
                m["pricing.norm_repeats"] += info in norms_seen
                norms_seen.add(info)
            elif name in ("pricing.call", "pricing.put", "pricing.f0"):
                m[name + "_s"] += dur
        elif layer == "series":
            # revert's compositions and divisions are its child spans and
            # count under compose_s and div_s, so revert_s is self time
            m[name + "_s"] += self_time(s) if name == "series.revert" else dur
            m["series.compose_calls"] += name == "series.compose"
        elif layer == "tables":
            m["tables.busy_s"] += dur
    points = m["evaluate.points"]
    m["evaluate.series_ratio"] = ((points - m["evaluate.outer_points"]) / points
                                  if points else 0.0)
    return m


def write_spans(path, spans, header):
    """One JSON header line, then one JSON array per span, gzip-compressed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps(header) + "\n")
        for s in sorted(spans, key=lambda s: s[2]):
            fh.write(json.dumps([s[0], s[1], s[2], s[3], s[4], s[5]]) + "\n")
