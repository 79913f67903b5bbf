"""psbox lifecycle tests: buffered collection (Listing 1) and destroy."""

import pytest

from repro.core.psbox import PsboxError
from repro.hw.nic import TX
from repro.kernel.balloon import SERVE
from repro.sim.clock import MSEC, SEC, from_msec

from tests.core.conftest import cpu_spinner, gpu_client
from tests.core.conftest import wifi_client


def test_collect_fills_buffer_and_fires_callback(booted):
    platform, kernel = booted
    app = cpu_spinner(kernel)
    box = app.create_psbox(("cpu",))
    box.enter()
    done = []
    buffer = box.collect(10, dt=from_msec(5),
                         callback=lambda t, w: done.append((t, w)))
    platform.sim.run(until=SEC)
    assert len(buffer) == 10
    assert done, "callback never fired"
    times, watts = done[0]
    assert times == sorted(times)
    assert all(w >= 0 for w in watts)
    # Timestamps land on the sampling cadence.
    assert times[1] - times[0] == from_msec(5)


def test_collect_validates_inputs(booted):
    platform, kernel = booted
    app = cpu_spinner(kernel)
    box = app.create_psbox(("cpu", "gpu"))
    box.enter()
    with pytest.raises(ValueError):
        box.collect(0)
    with pytest.raises(ValueError):
        box.collect(5)           # ambiguous component
    box.collect(5, component="cpu")


def test_collect_requires_entry(booted):
    platform, kernel = booted
    app = cpu_spinner(kernel)
    box = app.create_psbox(("cpu",))
    with pytest.raises(PsboxError):
        box.collect(5)


def test_collect_pauses_while_left(booted):
    platform, kernel = booted
    app = cpu_spinner(kernel)
    box = app.create_psbox(("cpu",))
    box.enter()
    buffer = box.collect(100, dt=from_msec(5))
    platform.sim.run(until=100 * MSEC)
    box.leave()
    n = len(buffer)
    platform.sim.run(until=300 * MSEC)
    assert len(buffer) == n


def test_close_destroys_sandbox(booted):
    platform, kernel = booted
    app = cpu_spinner(kernel)
    box = app.create_psbox(("cpu",))
    box.enter()
    platform.sim.run(until=100 * MSEC)
    box.close()
    assert not box.entered
    assert box.closed
    assert box not in app.psboxes
    with pytest.raises(PsboxError):
        box.enter()
    # The governor context was dropped.
    assert box.ctx_key not in kernel.cpu_governor.contexts


def test_close_frees_accel_slot_for_next_sandbox(booted):
    platform, kernel = booted
    a = gpu_client(kernel, "a")
    b = gpu_client(kernel, "b")
    box_a = a.create_psbox(("gpu",))
    box_a.enter()
    platform.sim.run(until=50 * MSEC)
    box_a.close()
    box_b = b.create_psbox(("gpu",))
    box_b.enter()
    assert box_b.entered


def test_fresh_sandbox_after_close_starts_pristine(booted):
    platform, kernel = booted
    app = gpu_client(kernel, "a", cycles=4e6, gap_us=200)
    box = app.create_psbox(("gpu",))
    box.enter()
    platform.sim.run(until=SEC)   # governor context ramps up
    ctx = kernel.gpu_governor.context(box.ctx_key)
    assert ctx.index > 0
    box.close()
    box2 = app.create_psbox(("gpu",))
    box2.enter()
    assert kernel.gpu_governor.context(box2.ctx_key).index == 0


def test_close_while_own_packet_is_on_the_air(booted):
    """The NIC cannot restore its power state mid-transmission: closing a
    WiFi psbox under its own packet switches to the world context and
    forgets the psbox's state once the air clears."""
    platform, kernel = booted
    boxed = wifi_client(kernel, "boxed", gap_us=500)
    wifi_client(kernel, "rival", size=16_800, gap_us=300)
    box = boxed.create_psbox(("wifi",))
    box.enter()
    t = 0
    while not (kernel.net_sched.state == SERVE and platform.nic.state == TX):
        t += MSEC // 10
        platform.sim.run(until=t)
    box.close()
    platform.sim.run(until=t + 100 * MSEC)
    holder = kernel.net_sched.state_holder
    assert holder.active == "world"
    assert box.ctx_key not in holder.saved
