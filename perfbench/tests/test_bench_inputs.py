"""Every seeded input stays inside the envelope the benchmark is run in.

Outside 0.0025 <= tau <= 0.125, or with a non-finite input, hwkit has two
known crashes (NOTES.md), so no seed may produce such an input.
"""

import math

import pytest

import workloads
from run import tail


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_inputs_finite_and_inside_tau_envelope(name):
    for seed in range(200):
        for tau, mu, x in workloads.float_inputs(name, seed):
            assert all(math.isfinite(v) for v in (tau, mu, x)), (name, seed)
            assert workloads.TAU_MIN <= tau <= workloads.TAU_MAX, (name, seed, tau)
            assert x > 0.0, (name, seed, x)


def test_inputs_follow_the_seed():
    assert workloads.float_inputs("strike_ladder", 7) == \
        workloads.float_inputs("strike_ladder", 7)
    assert workloads.float_inputs("strike_ladder", 7) != \
        workloads.float_inputs("strike_ladder", 8)
    assert len(workloads.float_inputs("strike_ladder", 7)) == 51
    assert len(workloads.float_inputs("density_grid", 7)) == 480


def test_ladder_strikes_sorted_and_apart():
    for seed in range(200):
        ks = workloads.ladder_strikes(seed)
        lo, hi = workloads.LADDER_K
        cell = (hi - lo) / workloads.LADDER_STRIKES
        assert lo < ks[0] and ks[-1] < hi
        assert all(b - a >= 0.5 * cell for a, b in zip(ks, ks[1:]))


def test_tail_keeps_ten_passes_beyond():
    durations = [float(i) for i in range(1, 41)]
    value, pct, beyond = tail(durations)
    assert (value, pct, beyond) == (30.0, 75.0, 10)
    assert sum(d > value for d in durations) == 10


def test_tail_never_below_the_median():
    assert tail([float(i) for i in range(1, 16)]) == (8.0, 800.0 / 15, 7)
    assert tail([3.0, 1.0, 2.0, 4.0]) == (3.0, 75.0, 1)
    assert tail([5.0]) == (5.0, 100.0, 0)
