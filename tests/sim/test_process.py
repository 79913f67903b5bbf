"""Unit tests for generator processes and signals."""

import pytest

from repro.sim.clock import MSEC
from repro.sim.engine import Simulator
from repro.sim.process import Signal


def test_process_sleeps_for_yielded_delay():
    sim = Simulator()
    marks = []

    def proc():
        marks.append(sim.now)
        yield 2 * MSEC
        marks.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert marks == [0, 2 * MSEC]


def test_signal_has_no_memory():
    """A subscriber hears only the fires after it subscribed, also when it
    subscribes while a fire runs."""
    sig = Signal()
    got = []
    sig.fire("early")
    sig.subscribe(lambda _payload: sig.subscribe(got.append))
    sig.fire("during")
    sig.fire("late")
    assert got == ["late"]


def test_signal_broadcasts_to_all_waiters():
    sig = Signal()
    got = []
    sig.subscribe(lambda payload: got.append(("a", payload)))
    sig.subscribe(lambda payload: got.append(("b", payload)))
    sig.fire(7)
    assert got == [("a", 7), ("b", 7)]


def test_negative_delay_rejected():
    sim = Simulator()

    def proc():
        yield -1

    sim.spawn(proc())
    with pytest.raises(ValueError):
        sim.run()


def test_bad_yield_type_rejected():
    sim = Simulator()

    def proc():
        yield "nope"

    sim.spawn(proc())
    with pytest.raises(TypeError):
        sim.run()


def test_kill_stops_process_without_done_signal():
    sim = Simulator()
    fired = []

    def proc():
        yield MSEC
        fired.append("ran")

    p = sim.spawn(proc())
    sim.run(until=MSEC // 2)
    p.kill()
    sim.run()
    assert fired == []
    assert p.finished
