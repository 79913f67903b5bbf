"""Unit cases of the simulator's event queue.

Each case drives ``Simulator`` through its public API: a push is ``at``,
a pop is an event firing inside ``run`` (``run(until=t)`` pops what is
due by ``t``), and the queue's length is ``pending()``.
``tests/sim/test_property_queue.py`` checks the same queue against a
push-ordered list.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Simulator


def _queue(*times):
    """A simulator with one event per time, each recording its index."""
    sim = Simulator()
    fired = []
    handles = [sim.at(t, fired.append, i) for i, t in enumerate(times)]
    return sim, fired, handles


def test_pop_in_time_order():
    sim, fired, _ = _queue(30, 10, 20)
    sim.run()
    assert fired == [1, 2, 0]


def test_fifo_among_ties():
    """Ties fire in push order, also for an event that an earlier time
    displaced from the head slot, twice."""
    sim, fired, _ = _queue(5, 5, 3)
    sim.run(until=3)                 # event 0 is back in the head slot
    sim.at(4, fired.append, 3)       # and is displaced again
    sim.at(5, fired.append, 4)
    sim.run()
    assert fired == [2, 3, 0, 1, 4]


def test_cancelled_events_are_skipped():
    sim, fired, (dead, _keep) = _queue(1, 2)
    dead.cancel()
    sim.run()
    assert fired == [1]


def test_peek_time_prunes_cancelled():
    """A cancelled head hides nothing: the next live event is still due
    at its own time."""
    sim, fired, (dead, _keep) = _queue(1, 7)
    dead.cancel()
    sim.run(until=6)
    assert fired == []
    sim.run(until=7)
    assert fired == [1]


def test_len_counts_pushed_events():
    sim, _fired, _handles = _queue(1, 2)
    assert sim.pending() == 2


def test_len_excludes_cancelled_events():
    """Regression: cancelled-but-unpruned events must not count as live."""
    sim, _fired, (event, _keep) = _queue(1, 2)
    event.cancel()
    assert sim.pending() == 1
    event.cancel()                   # idempotent: no double decrement
    assert sim.pending() == 1


def test_len_survives_lazy_prune():
    """The run loop drops corpses already discounted."""
    sim, fired, handles = _queue(1, 2, 3, 4)
    for event in handles[:3]:
        event.cancel()
    assert sim.pending() == 1
    sim.run(until=3)                 # prunes the three corpses
    assert sim.pending() == 1
    sim.run()
    assert fired == [3]
    assert sim.pending() == 0


def test_pop_decrements_len():
    sim, _fired, _handles = _queue(1, 2)
    sim.run(until=1)
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


def test_cancel_after_pop_does_not_underflow():
    sim, fired, (event, _keep) = _queue(1, 2)
    sim.run(until=1)
    assert fired == [0]
    event.cancel()                   # already fired: count must not move
    assert sim.pending() == 1


def test_cancel_is_idempotent():
    sim, fired, (event,) = _queue(1)
    event.cancel()
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.pending() == 0


def test_pop_due_respects_limit():
    """``until`` is inclusive: an event at exactly ``until`` fires."""
    sim, fired, _ = _queue(5, 10)
    sim.run(until=4)                 # nothing due yet
    assert fired == []
    sim.run(until=5)
    assert fired == [0]
    sim.run(until=9)                 # next event still queued
    assert fired == [0]
    assert sim.pending() == 1


def test_pop_due_skips_cancelled_up_to_limit():
    sim, fired, (dead, _keep) = _queue(1, 2)
    dead.cancel()
    sim.run(until=2)
    assert fired == [1]
    assert sim.pending() == 0


def test_pop_due_with_cancelled_head_past_limit():
    """A cancelled head beyond the limit stays queued as a corpse; the
    clock still reaches the limit."""
    sim, fired, (dead,) = _queue(9)
    dead.cancel()
    sim.run(until=5)
    assert sim.now == 5
    sim.run()
    assert fired == []
    assert sim.now == 5
    assert sim.pending() == 0


def test_pop_due_fifo_among_ties():
    sim, fired, _ = _queue(3, 3, 4)
    sim.run(until=3)
    assert fired == [0, 1]


def test_empty_queue_pop_and_peek():
    sim = Simulator()
    assert sim.run() == 0
    assert sim.pending() == 0


@given(st.lists(st.integers(min_value=0, max_value=20), max_size=50))
def test_pop_order_is_stable_sort_by_time(times):
    """Property: everything fires stable-sorted by timestamp — i.e.
    equal-timestamp events come out FIFO."""
    sim, fired, _ = _queue(*times)
    sim.run()
    # Python's sort is stable and indices are in push order, so this is
    # exactly "time-ordered, FIFO among ties".
    assert fired == sorted(range(len(times)), key=lambda i: times[i])
