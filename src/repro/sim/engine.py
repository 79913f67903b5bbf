"""The simulator: clock, event queue and loop, process spawning.

The event loop is the hottest code in the repository — every kernel,
hardware, powercap, and cluster scenario is millions of trips through
``run`` — and the simulator is its own event queue.  The single earliest
event sits in a head slot; every other event waits in a binary heap of
``(time, seq, event)`` tuples, so ordering comparisons stay in C.  ``run``
reads nothing but the queue: observability never enters it, since a span
names its parent where it begins (``repro.obs.tracer``).  The sha256
differential tests pin the loop's behaviour bit for bit, and
``tests/sim/test_property_queue.py`` checks it against a push-ordered
list.

Ties fire in exact push order (FIFO).  An event that enters the heap
behind the head takes the next counter value as ``seq``.  The head slot
changes hands on a push only for a strictly smaller time, so while an
event owns the slot every heap entry at its time was pushed after it;
a displaced head therefore enters the heap as ``(time, -1, event)``,
below every counter value, and FIFO holds.  Two ``-1`` entries never
share a time: a push takes the slot only with a time strictly below the
current head, which is itself at or below every heap entry, and a refill
pops the ``-1`` entry before any other at its time, so no second event
at that time reaches the slot while the first one's spill is queued.
The slot is kept for the one-pending-event ping (a process or timer
that reschedules itself), which it serves without heap traffic.
"""

from heapq import heappop, heappush

from repro.sim.process import Process
from repro.sim.rng import RngRegistry

#: limit for an un-bounded run(); int times compare fine against it
_FOREVER = float("inf")


class Event:
    """A scheduled ``fn(*args)`` at ``time``; the handle ``at`` returns.

    Cancelling marks the event dead; the queue drops it lazily when it
    surfaces.
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def cancel(self):
        """Prevent this event from firing.  Safe to call more than once."""
        self.cancelled = True

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t={}, {}, {})".format(
            self.time, getattr(self.fn, "__name__", self.fn), state)


_new_event = Event.__new__


class Simulator:
    """Owns the virtual clock and runs events in timestamp order."""

    __slots__ = ("now", "_head", "_heap", "_seq", "rng", "processes",
                 "faults", "obs")

    def __init__(self, seed=0):
        # Current simulation time in integer nanoseconds: a plain slot,
        # read everywhere and written only by the run loop (and by
        # ``run(until=)`` when the queue drains early).
        self.now = 0
        # Invariant: ``_head is None`` implies the heap is empty, and the
        # head fires before every heap entry.  The head may be a cancelled
        # corpse; the loop skips it lazily.
        self._head = None
        self._heap = []
        self._seq = 0
        self.rng = RngRegistry(seed)
        self.processes = []
        # Active fault-injection plan (:class:`repro.faults.FaultPlan`), or
        # None.  Components consult it at their injection sites; with no
        # plan installed those sites are pure reads and the simulation is
        # bit-identical to a build without them.
        self.faults = None
        # Observability session (:class:`repro.obs.Obs`), or None.  Like
        # ``faults``, every instrumentation point guards on it, so an
        # uninstrumented run pays one attribute read per site; the session
        # itself schedules no events and draws no RNG, so even an installed
        # one leaves the simulated schedule bit-identical.
        self.obs = None

    # -- scheduling --------------------------------------------------------------
    #
    # The three entry points repeat the slot/heap push inline: a shared
    # helper costs a Python frame per event, and perfbench's ``sim.events``
    # counts calls to these three, so one that delegated would count its
    # events twice.

    def at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at an absolute time (>= now)."""
        if time < self.now:
            raise ValueError(
                "cannot schedule at t={} before now={}".format(time, self.now)
            )
        event = _new_event(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.cancelled = False
        head = self._head
        if head is None:
            self._head = event
        elif time < head.time:
            heappush(self._heap, (head.time, -1, head))
            self._head = event
        else:
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (time, seq, event))
        return event

    def call_later(self, delay, fn, *args):
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        now = self.now
        time = now + delay
        if time < now:
            raise ValueError(
                "cannot schedule at t={} before now={}".format(time, now)
            )
        event = _new_event(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.cancelled = False
        head = self._head
        if head is None:
            self._head = event
        elif time < head.time:
            heappush(self._heap, (head.time, -1, head))
            self._head = event
        else:
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (time, seq, event))
        return event

    def call_soon(self, fn, *args):
        """Schedule ``fn(*args)`` at the current instant (after pending ties)."""
        time = self.now
        event = _new_event(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.cancelled = False
        head = self._head
        if head is None:
            self._head = event
        elif time < head.time:
            heappush(self._heap, (head.time, -1, head))
            self._head = event
        else:
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (time, seq, event))
        return event

    def spawn(self, generator, name=""):
        """Start a generator as a simulation process."""
        process = Process(self, generator, name).start()
        self.processes.append(process)
        return process

    # -- the event loop ----------------------------------------------------------

    def run(self, until=None):
        """Run events until the queue drains or the clock reaches ``until``.

        An event at exactly ``until`` fires.  When ``until`` is given the
        clock always finishes exactly there, even if the queue drained
        earlier — callers rely on ``now`` afterwards.
        """
        limit = until if until is not None else _FOREVER
        heap = self._heap
        while True:
            event = self._head
            if event is None:
                break
            time = event.time
            if time > limit:
                break
            self._head = heappop(heap)[2] if heap else None
            if event.cancelled:
                continue
            self.now = time
            args = event.args
            if args:
                event.fn(*args)
            else:
                event.fn()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def pending(self):
        """Number of live events still queued (O(queued) — diagnostics)."""
        head = self._head
        alive = 0 if head is None or head.cancelled else 1
        return alive + sum(1 for item in self._heap if not item[2].cancelled)

    def shutdown(self):
        """End the simulation: drop every pending event and process.

        Each queued event is cancelled and loses its callback, so a
        component that still holds a handle to one (a governor's tick, a
        core's completion) no longer reaches itself through it; every
        spawned process is killed; the fault plan forgets this simulator.
        Afterwards ``run`` executes nothing, while ``now``, ``rng`` and
        ``faults`` stay readable.  A second call does nothing.
        """
        pending = [item[2] for item in self._heap]
        if self._head is not None:
            pending.append(self._head)
        for event in pending:
            event.cancel()
            event.fn = None
            event.args = ()
        self._head = None
        self._heap.clear()
        for process in self.processes:
            process.kill()
        self.processes = []
        if self.faults is not None:
            self.faults.sim = None
