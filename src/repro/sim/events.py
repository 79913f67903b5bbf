"""Event objects and the event queue backing the simulator.

The queue is a *slot-plus-heap* structure tuned for the simulator's hot
path.  The single earliest live-or-cancelled event sits in a head slot;
everything else spills into a binary heap of ``(time, seq, event)`` tuples
(tuple comparison stays in C, unlike comparing event objects).  Most
simulation workloads schedule each next event at or after the head, so the
common push touches only the slot and the common pop refills it from the
heap top — no per-event heap walk, and with an empty heap no heap traffic
at all.

Tie order is exact (time, seq) FIFO, with ``seq`` assigned *lazily*: an
event gets a sequence number only when it enters the heap.  That is sound
because the head slot is only ever displaced by a strictly smaller time —
so while an event owns the slot, every same-time event in the heap was
pushed after it, and spilling the slot owner with the sentinel seq ``-1``
(below every counter value) preserves FIFO exactly.  Two sentinel entries
can never collide at one timestamp: taking the slot requires a time
strictly below the previous head, which is itself a lower bound on every
heap entry, so a second same-time event can never reach the slot while the
first one's spill is still queued.
"""

import heapq

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A scheduled callback.

    Events order by (time, seq); the sequence number makes ties
    deterministic (FIFO among events scheduled for the same instant).
    Cancelling marks the event dead; the queue drops dead events lazily
    when they surface.  Queue-created events materialize ``seq`` lazily
    (on heap entry), so readers outside the queue must tolerate its
    absence.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Prevent this event from firing.  Safe to call more than once."""
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t={}, seq={}, {}, {})".format(
            self.time, getattr(self, "seq", None),
            getattr(self.fn, "__name__", self.fn), state,
        )


class EventQueue:
    """Slot-plus-heap priority queue of :class:`Event`.

    ``len()`` is exact but O(queued): it walks the heap skipping corpses.
    The hot path deliberately keeps no live-event counter — diagnostics and
    tests read the length; the event loop never does.
    """

    __slots__ = ("_head", "_heap", "_seq")

    def __init__(self):
        # Invariant: ``_head is None`` implies the heap is empty, and the
        # head is <= every heap entry in (time, seq) order.  The head may
        # be a cancelled corpse; pops skip it lazily.
        self._head = None
        self._heap = []
        self._seq = 0

    def __len__(self):
        head = self._head
        alive = 0 if head is None or head.cancelled else 1
        return alive + sum(
            1 for item in self._heap if not item[2].cancelled
        )

    def push(self, time, fn, args):
        """Schedule ``fn(*args)`` at ``time``; returns the Event handle."""
        event = Event.__new__(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.cancelled = False
        head = self._head
        if head is None:
            self._head = event
        elif time < head.time:
            # Spill the slot owner; sentinel -1 orders it before every
            # same-time heap entry, all of which were pushed after it.
            _heappush(self._heap,
                      (head.time, getattr(head, "seq", -1), head))
            self._head = event
        else:
            seq = self._seq
            self._seq = seq + 1
            event.seq = seq
            _heappush(self._heap, (time, seq, event))
        return event

    def pop(self):
        """Pop the next live event, or return None when the queue drains."""
        heap = self._heap
        event = self._head
        while event is not None:
            self._head = _heappop(heap)[2] if heap else None
            if not event.cancelled:
                return event
            event = self._head
        return None

    def pop_due(self, limit):
        """Fused peek+pop: the next live event with ``time <= limit``.

        Returns None when the queue is drained *or* the next live event is
        past the limit (the event stays queued).  This is the single
        operation the simulator's run loop is built on — one call replaces
        the historical ``peek_time()`` + ``pop()`` double heap walk.
        """
        heap = self._heap
        event = self._head
        while event is not None:
            if event.time > limit:
                # The head is the queue-wide minimum, so nothing is due —
                # even a cancelled head only shadows later times.
                return None
            self._head = _heappop(heap)[2] if heap else None
            if not event.cancelled:
                return event
            event = self._head
        return None

    def peek_time(self):
        """Time of the next live event, or None.  Prunes dead head entries."""
        heap = self._heap
        event = self._head
        while event is not None and event.cancelled:
            event = self._head = _heappop(heap)[2] if heap else None
        if event is not None:
            return event.time
        return None
