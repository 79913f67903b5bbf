"""Generator-based simulation processes and subscriber signals.

A process is a Python generator driven by the simulator: each value it
yields is an ``int``, the nanoseconds to sleep before it resumes.
Kernel-side machinery (schedulers, drivers) uses plain event callbacks
instead, which are cheaper and easier to cancel.

A :class:`Signal` is no wait condition: it is a list of subscribers that
its owner calls with a payload (a frequency domain's new OPP, a NIC whose
transmit buffer freed space).
"""


class Signal:
    """A named subscriber list: ``fire(payload)`` calls each subscriber.

    A subscriber added while a fire runs first hears the next one.
    """

    __slots__ = ("name", "_callbacks")

    def __init__(self, name=""):
        self.name = name
        self._callbacks = ()

    def subscribe(self, fn):
        """Register a callback invoked with the payload on every fire."""
        self._callbacks += (fn,)

    def clear(self):
        """Forget every subscriber (the owner's boot has ended)."""
        self._callbacks = ()

    def fire(self, payload):
        """Invoke every subscriber with ``payload``, in subscription order."""
        for fn in self._callbacks:
            fn(payload)

    def __repr__(self):
        return "Signal({!r}, subscribers={})".format(
            self.name, len(self._callbacks))


class Process:
    """Drives one generator coroutine inside the simulator."""

    __slots__ = ("sim", "generator", "name", "finished", "_pending_event")

    def __init__(self, sim, generator, name=""):
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self._pending_event = None

    def start(self):
        self.sim.call_soon(self.resume)
        return self

    def resume(self):
        """Advance the generator by one step; sleep for the delay it yields."""
        if self.finished:
            return
        self._pending_event = None
        try:
            delay = next(self.generator)
        except StopIteration:
            self.finished = True
            return
        if not isinstance(delay, int):
            raise TypeError(
                "process {!r} yielded {!r}; expected an int delay".format(
                    self.name, delay))
        if delay < 0:
            raise ValueError(
                "process {!r} yielded negative delay {}".format(self.name, delay)
            )
        self._pending_event = self.sim.call_later(delay, self.resume)

    def kill(self):
        """Terminate the process, cancelling its pending wake-up."""
        self.finished = True
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        self.generator.close()

    def __repr__(self):
        state = "finished" if self.finished else "running"
        return "Process({!r}, {})".format(self.name, state)
