"""DVFS frequency domains with snapshot/restore for power-state virtualization."""

from repro.sim.process import Signal
from repro.sim.trace import StepTrace


class FreqDomain:
    """A shared clock/voltage domain over a set of operating points.

    ``set_opp`` switches operating points (cheap "operating/idle" state
    transitions, in the paper's taxonomy).  The psbox power-state
    virtualization layer snapshots and restores this state per sandbox via
    :meth:`snapshot` / :meth:`restore`.
    """

    def __init__(self, sim, name, opps, initial_index=0):
        if not opps:
            raise ValueError("frequency domain needs at least one OPP")
        self.sim = sim
        self.name = name
        self.opps = tuple(sorted(opps, key=lambda p: p.freq_hz))
        self.index = initial_index
        self.freq_trace = StepTrace(self.opps[initial_index].freq_hz, name=name)
        self.changed = Signal(name + ".freq_changed")

    @property
    def opp(self):
        return self.opps[self.index]

    @property
    def freq_hz(self):
        return self.opp.freq_hz

    @property
    def max_index(self):
        return len(self.opps) - 1

    def set_opp(self, index):
        """Switch to OPP ``index``; notifies listeners when it changes."""
        index = max(0, min(index, self.max_index))
        if index == self.index:
            return
        self.index = index
        self.freq_trace.set(self.sim.now, self.freq_hz)
        self.changed.fire(self.opp)

    def step(self, delta):
        """Move ``delta`` OPP steps up (positive) or down (negative)."""
        self.set_opp(self.index + delta)

    def cycles_between(self, t0, t1):
        """Exact cycles executed over [t0, t1) at the domain's frequency."""
        return self.freq_trace.integrate(t0, t1) / 1e9

    def snapshot(self):
        """Capture the virtualizable operating state."""
        return {"index": self.index}

    def default_state(self):
        """Pristine operating state for a brand-new context."""
        return {"index": 0}

    def restore(self, state):
        """Restore a previously captured operating state."""
        self.set_opp(state["index"])
