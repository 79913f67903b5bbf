"""Generator-based simulation processes.

A process is a Python generator driven by the simulator.  It may yield:

* an ``int`` — sleep for that many nanoseconds;
* a :class:`Signal` — suspend until the signal fires; the value sent back
  into the generator is the signal payload.

This is the simpy-style coroutine model, trimmed to the two primitives the
rest of the code base needs.  Kernel-side machinery (schedulers, drivers)
uses plain event callbacks instead, which are cheaper and easier to cancel.
"""


class Signal:
    """A broadcast condition processes can wait on.

    ``fire(payload)`` resumes every current waiter with ``payload``.  Waiters
    registered after the fire wait for the *next* fire — signals have no
    memory, exactly like a condition variable broadcast.
    """

    __slots__ = ("sim", "name", "_waiters", "_callbacks")

    def __init__(self, sim, name=""):
        self.sim = sim
        self.name = name
        self._waiters = []
        self._callbacks = []

    def wait(self, process):
        self._waiters.append(process)

    def subscribe(self, fn):
        """Register a plain callback invoked with the payload on every fire."""
        self._callbacks.append(fn)

    def unsubscribe(self, fn):
        self._callbacks.remove(fn)

    def clear(self):
        """Forget every waiter and subscriber (the owner's boot has ended)."""
        self._waiters = []
        self._callbacks = []

    def fire(self, payload=None):
        """Resume all waiters and invoke all subscribers with ``payload``."""
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim.call_soon(process.resume, payload)
        for fn in list(self._callbacks):
            fn(payload)

    def __repr__(self):
        return "Signal({!r}, waiters={})".format(self.name, len(self._waiters))


class Process:
    """Drives one generator coroutine inside the simulator."""

    __slots__ = ("sim", "generator", "name", "finished", "result",
                 "_pending_event", "done")

    def __init__(self, sim, generator, name=""):
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self.result = None
        self._pending_event = None
        self.done = Signal(sim, name=self.name + ".done")

    def start(self):
        self.sim.call_soon(self.resume, None)
        return self

    def resume(self, value=None):
        """Advance the generator by one step; reschedule per its yield."""
        if self.finished:
            return
        self._pending_event = None
        try:
            yielded = self.generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.done.fire(self.result)
            return
        if isinstance(yielded, Signal):
            yielded.wait(self)
        elif isinstance(yielded, int):
            if yielded < 0:
                raise ValueError(
                    "process {!r} yielded negative delay {}".format(self.name, yielded)
                )
            self._pending_event = self.sim.call_later(yielded, self.resume, None)
        else:
            raise TypeError(
                "process {!r} yielded {!r}; expected int delay or Signal".format(
                    self.name, yielded
                )
            )

    def kill(self):
        """Terminate the process without firing its done signal."""
        self.finished = True
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        self.generator.close()

    def __repr__(self):
        state = "finished" if self.finished else "running"
        return "Process({!r}, {})".format(self.name, state)
