"""Duty-cycled admission gating for the balloon schedulers.

The powercap actuators throttle accelerator and NIC apps by *admission*:
an app's commands/packets only dispatch during the on-phase of a periodic
duty cycle.  The gate lives outside the schedulers' fairness accounting —
a gated queue keeps its vruntime/credit, it just is not eligible right
now — so removing a gate restores exactly the untouched behavior.

The phase is derived from the simulation clock (``now % period``), which
keeps gating deterministic and free of per-gate timer state; the single
re-pump event is armed only while a gated queue actually has work.
"""


class _Gate:
    __slots__ = ("fraction", "period")

    def __init__(self, fraction, period):
        self.fraction = fraction
        self.period = period

    @property
    def on_ns(self):
        return max(1, int(self.fraction * self.period))


class AdmissionGate:
    """Per-app duty-cycle gates for one scheduler's dispatch pump.

    ``pump`` is invoked (with no arguments) whenever a gate edge may have
    made previously gated work dispatchable again.
    """

    def __init__(self, sim, pump):
        self.sim = sim
        self._pump = pump
        self._gates = {}
        self._event = None

    def __len__(self):
        return len(self._gates)

    def set(self, app_id, fraction, period):
        """Admit ``app_id`` for ``fraction`` of every ``period`` ns.

        ``fraction >= 1`` removes the gate.
        """
        if fraction <= 0.0:
            raise ValueError("admission fraction must be positive")
        if period <= 0:
            raise ValueError("admission period must be positive")
        if fraction >= 1.0:
            self.clear(app_id)
            return
        self._gates[app_id] = _Gate(fraction, int(period))
        self._pump()

    def clear(self, app_id):
        """Remove ``app_id``'s gate (no-op when none is set)."""
        if self._gates.pop(app_id, None) is not None:
            self._pump()

    def fraction(self, app_id):
        """The admitted fraction for ``app_id`` (1.0 when ungated)."""
        gate = self._gates.get(app_id)
        return 1.0 if gate is None else gate.fraction

    def gated(self, app_id):
        """True while ``app_id`` is in the off-phase of its duty cycle."""
        gate = self._gates.get(app_id)
        if gate is None:
            return False
        return (self.sim.now % gate.period) >= gate.on_ns

    def next_on_edge(self, app_id):
        """Absolute time the app's next on-phase begins."""
        gate = self._gates[app_id]
        now = self.sim.now
        return now - (now % gate.period) + gate.period

    def arm(self, t):
        """Schedule one pump at time ``t`` (coalesced with earlier arms)."""
        if self._event is not None and not self._event.cancelled \
                and self._event.time <= t:
            return
        if self._event is not None:
            self._event.cancel()
        self._event = self.sim.at(t, self._fire)

    def _fire(self):
        self._event = None
        self._pump()

    def shutdown(self):
        """Forget the pump: the scheduler's boot has ended."""
        self._pump = None
