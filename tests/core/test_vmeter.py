"""Virtual power meter tests: windows, idle fill, energy arithmetic."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vmeter import VirtualPowerMeter
from repro.hw.platform import Platform
from repro.sim.clock import MSEC, SEC


@pytest.fixture
def setup():
    platform = Platform.full(seed=0)
    vmeter = VirtualPowerMeter(platform, ("cpu",))
    return platform, vmeter


def test_no_windows_reads_pure_idle(setup):
    platform, vmeter = setup
    idle_w = platform.idle_power("cpu")
    energy = vmeter.energy(0, SEC)
    assert energy == pytest.approx(idle_w, rel=1e-9)   # 1 s x idle watts
    _t, watts = vmeter.samples("cpu", 0, 10 * MSEC)
    assert np.allclose(watts, idle_w)


def test_window_passes_rail_power_through(setup):
    platform, vmeter = setup
    rail = platform.rails["cpu"]
    sim = platform.sim
    rail.set_part("x", 2.0)
    vmeter.open_window("cpu", 0)
    sim.run(until=100 * MSEC)
    vmeter.close_window("cpu", 100 * MSEC)
    sim.run(until=200 * MSEC)
    idle_w = platform.idle_power("cpu")
    expected = 2.0 * 0.1 + idle_w * 0.1
    # The rail carries its own idle contribution too; account for it.
    base = rail.power_now() - 2.0
    expected += base * 0.1
    assert vmeter.energy(0, 200 * MSEC) == pytest.approx(expected, rel=1e-6)


def test_open_window_extends_to_query_time(setup):
    platform, vmeter = setup
    vmeter.open_window("cpu", 50 * MSEC)
    wins = vmeter.windows("cpu", 0, 200 * MSEC)
    assert wins == [(50 * MSEC, 200 * MSEC)]


def test_windows_clip_to_query_range(setup):
    platform, vmeter = setup
    vmeter.open_window("cpu", 10 * MSEC)
    vmeter.close_window("cpu", 90 * MSEC)
    assert vmeter.windows("cpu", 20 * MSEC, 50 * MSEC) == [
        (20 * MSEC, 50 * MSEC)
    ]
    assert vmeter.windows("cpu", 100 * MSEC, 200 * MSEC) == []


def test_double_open_and_close_are_tolerated(setup):
    platform, vmeter = setup
    vmeter.open_window("cpu", 0)
    vmeter.open_window("cpu", 5 * MSEC)    # ignored: already open
    vmeter.close_window("cpu", 10 * MSEC)
    vmeter.close_window("cpu", 20 * MSEC)  # ignored: already closed
    assert vmeter.windows("cpu", 0, SEC) == [(0, 10 * MSEC)]


def test_zero_width_window_dropped(setup):
    platform, vmeter = setup
    vmeter.open_window("cpu", 10)
    vmeter.close_window("cpu", 10)
    assert vmeter.windows("cpu", 0, SEC) == []


def test_samples_switch_between_rail_and_idle(setup):
    platform, vmeter = setup
    platform.rails["cpu"].set_part("x", 3.0)
    vmeter.open_window("cpu", 20 * MSEC)
    vmeter.close_window("cpu", 40 * MSEC)
    platform.sim.run(until=60 * MSEC)
    times, watts = vmeter.samples("cpu", 0, 60 * MSEC, dt=MSEC)
    idle_w = platform.idle_power("cpu")
    assert watts[5] == pytest.approx(idle_w)
    assert watts[30] > 2.9
    assert watts[55] == pytest.approx(idle_w)


def test_observed_fraction(setup):
    platform, vmeter = setup
    vmeter.open_window("cpu", 0)
    vmeter.close_window("cpu", 250 * MSEC)
    assert vmeter.observed_fraction("cpu", 0, SEC) == pytest.approx(0.25)
    assert vmeter.observed_fraction("cpu", 0, 0) == 0.0


def test_multi_component_energy_sums(setup):
    platform, _ = setup
    vmeter = VirtualPowerMeter(platform, ("cpu", "gpu"))
    energy_total = vmeter.energy(0, SEC)
    energy_cpu = vmeter.energy(0, SEC, component="cpu")
    energy_gpu = vmeter.energy(0, SEC, component="gpu")
    assert energy_total == pytest.approx(energy_cpu + energy_gpu)


def _linear_windows(vmeter, component, t0, t1):
    """The reference for ``windows``: clip every window, in order."""
    clipped = []
    for start, end in vmeter._windows[component]:
        lo, hi = max(start, t0), min(end, t1)
        if hi > lo:
            clipped.append((lo, hi))
    start = vmeter._open_at[component]
    if start is not None and t1 > start:
        lo = max(start, t0)
        if t1 > lo:
            clipped.append((lo, t1))
    return clipped


@given(st.lists(st.integers(0, 30), max_size=25), st.data())
@settings(max_examples=200, deadline=None)
def test_windows_match_the_linear_scan(gaps, data):
    """Random open/close histories: zero gaps give windows that share a
    boundary (close and reopen at one instant) and dropped zero-width
    ones; an odd number of edges leaves the last window open."""
    vmeter = VirtualPowerMeter(SimpleNamespace(gps=None), ("cpu",))
    t = 0
    edges = [0]
    for k, gap in enumerate(gaps):
        t += gap
        edges.append(t)
        if k % 2 == 0:
            vmeter.open_window("cpu", t)
        else:
            vmeter.close_window("cpu", t)
    point = st.one_of(st.integers(-10, t + 40), st.sampled_from(edges))
    for _ in range(12):
        t0, t1 = data.draw(point), data.draw(point)
        assert vmeter.windows("cpu", t0, t1) == _linear_windows(
            vmeter, "cpu", t0, t1)
