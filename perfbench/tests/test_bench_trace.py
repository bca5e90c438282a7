"""The traced run changes no output and leaves hwkit as it found it."""

import importlib

import pytest

import tracing
import workloads

COUNTS = [name for name, unit, _ in tracing.PER_LAYER if unit == "count"]


def _bindings(wl):
    found = {}
    for modname, attr, _ in tracing.TARGETS:
        found[(modname, attr)] = getattr(importlib.import_module(modname), attr)
    for attr in ("F", "G"):
        found[("workload", attr)] = getattr(wl, attr, None)
    return found


def _bits(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


def _traced_pass(wl, tracer):
    wl.reset()
    with tracer.traced_pass(wl):
        out = wl.run_pass()
    m = tracing.layer_metrics(tracer.spans)
    m["series.max_digits"] = wl.max_digits(out)
    return out, m


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    name = request.param
    wl = workloads.WORKLOADS[name](11, workloads.setup(name))
    before = _bindings(wl)
    wl.reset()
    plain = wl.run_pass()
    tracer = tracing.Tracer()
    out1, m1 = _traced_pass(wl, tracer)
    out2, m2 = _traced_pass(wl, tracer)
    return {"name": name, "wl": wl, "before": before, "plain": plain,
            "outs": (out1, out2), "metrics": (m1, m2), "tracer": tracer}


def test_traced_outputs_bit_identical(traced):
    wl = traced["wl"]
    plain = _bits(wl.values(traced["plain"]))
    for out in traced["outs"]:
        assert _bits(wl.values(out)) == plain
    assert wl.check(traced["outs"][0]).failed == 0


def test_every_binding_restored(traced):
    after = _bindings(traced["wl"])
    for key, original in traced["before"].items():
        assert after[key] is original, key


def test_missing_target_raises_and_restores(traced, monkeypatch):
    wl = traced["wl"]
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("hwkit.exact", "no_such_binding", "exact.x"),))
    with pytest.raises(AttributeError, match="no_such_binding"):
        with tracing.Tracer().traced_pass(wl):
            pass
    monkeypatch.undo()
    after = _bindings(wl)
    for key, original in traced["before"].items():
        assert after[key] is original, key


def test_short_output_fails_every_item(traced):
    wl, out = traced["wl"], traced["plain"]
    short = dict(list(out.items())[1:]) if isinstance(out, dict) else out[:-1]
    assert wl.check(short).failed == wl.items


def test_counts_repeat_exactly(traced):
    m1, m2 = traced["metrics"]
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}


def test_layer_separation(traced):
    name, m = traced["name"], traced["metrics"][0]
    if name == "exact_tables":
        assert m["exact.calls"] == m["bessel.calls"] == m["pricing.norm_calls"] == 0
        assert m["evaluate.points"] == m["quadrature.node_requests"] == 0
        assert m["series.compose_calls"] > 0 and m["series.max_digits"] > 0
        kernels = sum(m[k] for k in ("series.compose_s", "series.div_s",
                                     "series.sqrt_s", "series.revert_s"))
        assert 0.0 < kernels <= m["tables.busy_s"]
    else:
        assert m["series.compose_calls"] == 0 and m["exact.calls"] > 0
    assert (m["pricing.norm_repeats"] > 0) == (name in ("table3", "strike_ladder"))
    assert (m["bessel.calls"] > 0) == (name in ("table3", "strike_ladder"))
