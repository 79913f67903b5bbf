"""Multicore CPU cluster: cores, work execution, and rail power.

The cluster owns one shared frequency domain (Cortex-A15-style) and one
power rail.  Cores execute *work items* measured in cycles; completion times
track DVFS changes exactly (re-derived from the frequency trace), so the
kernel scheduler never needs to know about frequency switches.
"""

from repro.sim.clock import SEC


class WorkItem:
    """A compute burst measured in CPU cycles."""

    __slots__ = ("cycles", "done", "on_complete")

    def __init__(self, cycles, on_complete=None):
        if cycles <= 0:
            raise ValueError("work item must have positive cycles")
        self.cycles = float(cycles)
        self.done = 0.0
        self.on_complete = on_complete

    @property
    def remaining(self):
        return max(self.cycles - self.done, 0.0)


class CpuCore:
    """One CPU core: runs at most one work item at a time.

    The scheduler assigns work via :meth:`start` and revokes it via
    :meth:`preempt`.  The core tracks busy/owner state for the power model
    and the accounting baselines.
    """

    def __init__(self, sim, cluster, core_id):
        self.sim = sim
        self.cluster = cluster
        self.id = core_id
        self.work = None
        self.owner_id = None
        self._run_start = None
        self._completion_event = None
        cluster.freq_domain.changed.subscribe(self._on_freq_change)

    @property
    def busy(self):
        return self.work is not None

    def start(self, owner_id, work):
        """Begin executing ``work`` on behalf of ``owner_id`` (an app id)."""
        if self.work is not None:
            raise RuntimeError("core {} already busy".format(self.id))
        self.work = work
        self.owner_id = owner_id
        self._run_start = self.sim.now
        self._schedule_completion()
        self.cluster.note_activity(self)

    def preempt(self):
        """Stop the current work item; returns it with progress updated."""
        if self.work is None:
            return None
        self._settle_progress()
        work = self.work
        self._clear()
        return work

    def _clear(self):
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        self.work = None
        self.owner_id = None
        self._run_start = None
        self.cluster.note_activity(self)

    def _settle_progress(self):
        now = self.sim.now
        if self.work is not None and now > self._run_start:
            domain = self.cluster.freq_domain
            self.work.done += domain.cycles_between(self._run_start, now)
            self._run_start = now

    def _schedule_completion(self):
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        remaining = self.work.remaining
        if remaining <= 0:
            self._completion_event = self.sim.call_soon(self._complete)
            return
        domain = self.cluster.freq_domain
        freq = domain.opps[domain.index].freq_hz
        delay = max(int(remaining / freq * SEC), 1)
        self._completion_event = self.sim.call_later(delay, self._complete)

    def _complete(self):
        self._settle_progress()
        if self.work is None:
            return
        if self.work.remaining > 1e-6:
            # Frequency dropped since the event was scheduled; re-derive.
            self._schedule_completion()
            return
        work = self.work
        self._clear()
        if work.on_complete is not None:
            work.on_complete(self)

    def _on_freq_change(self, _opp):
        if self.work is None:
            return
        self._settle_progress()
        self._schedule_completion()


class CpuCluster:
    """A set of cores sharing one frequency domain and one power rail."""

    def __init__(self, sim, rail, freq_domain, power_model, n_cores=2, name="cpu"):
        from repro.sim.trace import StepTrace

        self.sim = sim
        self.name = name
        self.rail = rail
        self.freq_domain = freq_domain
        self.power_model = power_model
        self.cores = [CpuCore(sim, self, i) for i in range(n_cores)]
        # Per-core busy (0/1) and owner (-1 = idle) traces for the governor
        # and for the accounting baselines.
        self.busy_traces = [
            StepTrace(0.0, name="{}.core{}.busy".format(name, i))
            for i in range(n_cores)
        ]
        self.owner_traces = [
            StepTrace(-1.0, name="{}.core{}.owner".format(name, i))
            for i in range(n_cores)
        ]
        freq_domain.changed.subscribe(lambda _opp: self._update_power())
        self._update_power()

    @property
    def n_cores(self):
        return len(self.cores)

    def shutdown(self):
        """Drop the frequency subscribers and the cores' back-references."""
        self.freq_domain.changed.clear()
        for core in self.cores:
            core.cluster = None

    def note_activity(self, core):
        """A core's busy/owner state changed; refresh traces and rail power."""
        now = self.sim.now
        self.busy_traces[core.id].set(now, 0.0 if core.work is None else 1.0)
        owner = core.owner_id if core.owner_id is not None else -1
        self.owner_traces[core.id].set(now, float(owner))
        self._update_power()

    def _update_power(self):
        n_active = 0
        for core in self.cores:
            if core.work is not None:
                n_active += 1
        domain = self.freq_domain
        watts = self.power_model.rail_power(domain.opps[domain.index], n_active)
        self.rail.set_part(self.name, watts)

    def utilization(self, t0, t1):
        """Mean fraction of busy core-time over [t0, t1)."""
        if t1 <= t0:
            return 0.0
        busy = sum(trace.integrate(t0, t1) for trace in self.busy_traces)
        return busy / ((t1 - t0) * self.n_cores)

    def max_core_utilization(self, t0, t1):
        """Busy fraction of the busiest core over [t0, t1).

        This is what an ondemand-style governor keys on: a single saturated
        core must raise the shared clock even if siblings idle.
        """
        if t1 <= t0:
            return 0.0
        busiest = None
        for trace in self.busy_traces:
            fraction = trace.integrate(t0, t1) / (t1 - t0)
            if busiest is None or fraction > busiest:
                busiest = fraction
        return busiest
