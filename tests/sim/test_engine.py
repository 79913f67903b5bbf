"""Unit tests for the Simulator event loop."""

import pytest

from repro.sim.clock import MSEC, SEC
from repro.sim.engine import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_call_later_advances_clock():
    sim = Simulator()
    seen = []
    sim.call_later(5 * MSEC, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5 * MSEC]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.call_later(1 * MSEC, seen.append, "a")
    sim.call_later(10 * MSEC, seen.append, "b")
    sim.run(until=5 * MSEC)
    assert seen == ["a"]
    assert sim.now == 5 * MSEC


def test_run_until_advances_clock_even_when_queue_drains():
    sim = Simulator()
    sim.run(until=SEC)
    assert sim.now == SEC


def test_at_rejects_past_times():
    sim = Simulator()
    sim.call_later(MSEC, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(0, lambda: None)


def test_call_soon_runs_at_current_instant():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.call_soon(order.append, "inner")

    sim.call_later(MSEC, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == MSEC


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    ev = sim.call_later(MSEC, seen.append, 1)
    ev.cancel()
    sim.run()
    assert seen == []


def test_events_fire_in_causal_order():
    sim = Simulator()
    seen = []
    for delay in (3, 1, 2, 5, 4):
        sim.call_later(delay * MSEC, seen.append, delay)
    sim.run()
    assert seen == sorted(seen)


def test_run_until_in_the_past_is_a_noop():
    sim = Simulator()
    sim.call_later(10 * MSEC, lambda: None)
    sim.run(until=10 * MSEC)
    assert sim.now == 10 * MSEC
    sim.run(until=5 * MSEC)     # already past: clock must not go back
    assert sim.now == 10 * MSEC


def test_event_scheduled_by_event_at_same_instant_runs():
    sim = Simulator()
    seen = []

    def first():
        sim.at(sim.now, seen.append, "second")
        seen.append("first")

    sim.call_later(MSEC, first)
    sim.run()
    assert seen == ["first", "second"]


def test_pending_counts_live_events():
    sim = Simulator()
    sim.call_later(1, lambda: None)
    sim.call_later(2, lambda: None)
    assert sim.pending() == 2


def test_pending_excludes_cancelled_events():
    """Regression: pending() overreported by counting cancelled events."""
    sim = Simulator()
    ev = sim.call_later(1, lambda: None)
    sim.call_later(2, lambda: None)
    ev.cancel()
    assert sim.pending() == 1


def test_dispatch_restores_tracer_scope_when_handler_raises():
    """A handler that raises mid-span leaves the queue runnable: a caller
    that catches the exception runs on, and the loop keeps no trace
    state for the failure to leave behind."""
    from repro.obs import Obs

    sim = Simulator()
    obs = Obs(sim, tracing=True).install()
    fired = []

    def boom():
        obs.tracer.begin("doomed")
        raise RuntimeError("handler failure")

    sim.call_later(1, boom)
    sim.call_later(2, fired.append, "after")
    with pytest.raises(RuntimeError):
        sim.run()
    sim.run()
    assert fired == ["after"]
    assert sim.now == 2
    assert [span.name for span in obs.tracer.open_spans()] == ["doomed"]


def test_rng_registry_is_deterministic():
    a = Simulator(seed=42).rng.stream("x").random()
    b = Simulator(seed=42).rng.stream("x").random()
    c = Simulator(seed=43).rng.stream("x").random()
    assert a == b
    assert a != c


def test_rng_streams_are_independent_by_name():
    sim = Simulator(seed=1)
    assert sim.rng.stream("a").random() != sim.rng.stream("b").random()
