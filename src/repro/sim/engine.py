"""The simulator: clock, event loop, process spawning.

The event loop is the hottest code in the repository — every kernel,
hardware, powercap, and cluster scenario is millions of trips through
``run``.  Three decisions keep it fast without changing observable
behaviour (the sha256 differential tests pin this down bit for bit):

* **fused pop-if-due** — the loop mirrors ``EventQueue.pop_due`` inline
  (head slot + heap spillover) instead of the historical ``peek_time()``
  + ``pop()`` double walk;
* **per-segment dispatch decision** — ``run`` latches the observability
  session once per call and enters a dedicated loop (fast / traced),
  instead of re-reading ``self.obs`` for every event.  Installing a
  session or toggling ``tracer.enabled`` mid-handler therefore takes
  effect at the next ``run`` call — nothing in the tree does this, and
  sessions are documented as install-before-run;
* **lazy trace bookkeeping** — with tracing enabled the loop pays one
  flag check per event until the first span begins
  (``tracer._seen_spans``); only after that does it stamp scheduling
  context onto events and reset the tracer's per-cascade state.

The scheduling entry points (``at``/``call_later``/``call_soon``) inline
``EventQueue.push`` for the same reason; the queue's method remains the
canonical definition of the ordering contract.
"""

from heapq import heappop, heappush

from repro.sim.events import Event, EventQueue
from repro.sim.process import Process, Signal
from repro.sim.rng import RngRegistry

_new_event = Event.__new__

#: limit for an un-bounded run(); int times compare fine against it
_FOREVER = float("inf")


class Simulator:
    """Owns the virtual clock and runs events in timestamp order."""

    __slots__ = ("now", "_queue", "rng", "processes", "faults", "obs",
                 "_ctx_tracer")

    def __init__(self, seed=0):
        # Current simulation time in integer nanoseconds: a plain slot,
        # read everywhere and written only by the run loops (and by
        # ``run(until=)`` when the queue drains early).
        self.now = 0
        self._queue = EventQueue()
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
        # The active tracer when scheduling-context stamping may be needed
        # (session installed with tracing enabled), else None.  Set by
        # Obs.install and re-latched by run().
        self._ctx_tracer = None

    # -- scheduling --------------------------------------------------------------
    #
    # The three entry points repeat the slot/heap push inline: a chained
    # helper (the historical at -> _push -> queue.push) costs two extra
    # Python frames per event, which is most of the queue's former budget.
    # EventQueue.push documents the ordering contract they all follow.

    def at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at an absolute time (>= now)."""
        if time < self.now:
            raise ValueError(
                "cannot schedule at t={} before now={}".format(time, self.now)
            )
        queue = self._queue
        event = _new_event(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.cancelled = False
        tracer = self._ctx_tracer
        if tracer is not None and tracer._seen_spans:
            stack = tracer._stack
            ctx = stack[-1] if stack else tracer._event_ctx
            if ctx is not None:
                event.ctx = ctx
        head = queue._head
        if head is None:
            queue._head = event
        elif time < head.time:
            heappush(queue._heap,
                     (head.time, getattr(head, "seq", -1), head))
            queue._head = event
        else:
            seq = queue._seq
            queue._seq = seq + 1
            event.seq = seq
            heappush(queue._heap, (time, seq, event))
        return event

    def call_later(self, delay, fn, *args):
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        now = self.now
        time = now + delay
        if time < now:
            raise ValueError(
                "cannot schedule at t={} before now={}".format(time, now)
            )
        queue = self._queue
        event = _new_event(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.cancelled = False
        tracer = self._ctx_tracer
        if tracer is not None and tracer._seen_spans:
            stack = tracer._stack
            ctx = stack[-1] if stack else tracer._event_ctx
            if ctx is not None:
                event.ctx = ctx
        head = queue._head
        if head is None:
            queue._head = event
        elif time < head.time:
            heappush(queue._heap,
                     (head.time, getattr(head, "seq", -1), head))
            queue._head = event
        else:
            seq = queue._seq
            queue._seq = seq + 1
            event.seq = seq
            heappush(queue._heap, (time, seq, event))
        return event

    def call_soon(self, fn, *args):
        """Schedule ``fn(*args)`` at the current instant (after pending ties)."""
        time = self.now
        queue = self._queue
        event = _new_event(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.cancelled = False
        tracer = self._ctx_tracer
        if tracer is not None and tracer._seen_spans:
            stack = tracer._stack
            ctx = stack[-1] if stack else tracer._event_ctx
            if ctx is not None:
                event.ctx = ctx
        head = queue._head
        if head is None:
            queue._head = event
        elif time < head.time:
            heappush(queue._heap,
                     (head.time, getattr(head, "seq", -1), head))
            queue._head = event
        else:
            seq = queue._seq
            queue._seq = seq + 1
            event.seq = seq
            heappush(queue._heap, (time, seq, event))
        return event

    def signal(self, name=""):
        """Create a :class:`Signal` bound to this simulator."""
        return Signal(self, name)

    def spawn(self, generator, name=""):
        """Start a generator as a simulation process."""
        process = Process(self, generator, name).start()
        self.processes.append(process)
        return process

    # -- the event loop ----------------------------------------------------------

    def _latch_dispatch(self):
        """Latch the per-segment dispatch decision; returns the tracer."""
        obs = self.obs
        tracer = obs.tracer if obs is not None and obs.tracer.enabled \
            else None
        self._ctx_tracer = tracer
        return tracer

    def run(self, until=None):
        """Run events until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock always finishes exactly there, even
        if the queue drained earlier — callers rely on ``now`` afterwards.
        """
        tracer = self._latch_dispatch()
        limit = until if until is not None else _FOREVER
        queue = self._queue
        heap = queue._heap
        if tracer is None:
            # Fast loop: the inlined pop_due and nothing else.
            while True:
                event = queue._head
                if event is None:
                    break
                time = event.time
                if time > limit:
                    break
                queue._head = heappop(heap)[2] if heap else None
                if event.cancelled:
                    continue
                self.now = time
                args = event.args
                if args:
                    event.fn(*args)
                else:
                    event.fn()
        else:
            # Traced loop: until the first span begins, one flag check per
            # event is the entire tracing cost.  Afterwards each event
            # resets the per-cascade state (its scheduling context, an
            # empty scope stack) — the reset folds into the *next* event's
            # prologue (and the finally below), which nothing can observe
            # in between.
            stack = tracer._stack
            try:
                while True:
                    event = queue._head
                    if event is None:
                        break
                    time = event.time
                    if time > limit:
                        break
                    queue._head = heappop(heap)[2] if heap else None
                    if event.cancelled:
                        continue
                    self.now = time
                    if tracer._seen_spans:
                        tracer._event_ctx = getattr(event, "ctx", None)
                        if stack:
                            del stack[:]
                    args = event.args
                    if args:
                        event.fn(*args)
                    else:
                        event.fn()
            finally:
                tracer._event_ctx = None
                if stack:
                    del stack[:]
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def pending(self):
        """Number of live events still queued (O(queued) — diagnostics)."""
        return len(self._queue)

    def shutdown(self):
        """End the simulation: drop every pending event and process.

        Each queued event is cancelled and loses its callback, so a
        component that still holds a handle to one (a governor's tick, a
        core's completion) no longer reaches itself through it; every
        spawned process is killed; the fault plan forgets this simulator.
        Afterwards ``run`` executes nothing, while ``now``, ``rng`` and
        ``faults`` stay readable.  A second call does nothing.
        """
        queue = self._queue
        pending = [item[2] for item in queue._heap]
        if queue._head is not None:
            pending.append(queue._head)
        for event in pending:
            event.cancel()
            event.fn = None
            event.args = ()
        queue._head = None
        queue._heap.clear()
        for process in self.processes:
            process.kill()
        self.processes = []
        if self.faults is not None:
            self.faults.sim = None
