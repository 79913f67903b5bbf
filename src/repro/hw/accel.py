"""Accelerator command engines (shared by the GPU and DSP models).

The engine executes commands *concurrently* up to a hardware parallelism
limit, the way real GPUs pipeline work from an asynchronous command queue.
Concurrent commands share functional units: each one slows down, and their
combined power is sub-additive.  Both effects make per-command power
attribution impossible from the outside — the paper's "blurry request
boundary" entanglement (Figure 3(b)).
"""

import itertools

from repro.sim.clock import SEC
from repro.sim.trace import EventTrace, StepTrace

# record shapes of the ``<name>.commands`` log
_DISPATCH = ("dispatch", "app", "cmd_kind", "seq", "power")
_COMPLETE = ("complete", "app", "cmd_kind", "seq")


class Command:
    """One accelerator command (GPU render/compute batch, DSP kernel...).

    ``seq`` labels it in the logs; the driver numbers commands from its
    engine's ``unit_seq``.
    """

    __slots__ = (
        "app_id",
        "kind",
        "cycles",
        "power_w",
        "seq",
        "submit_t",
        "dispatch_t",
        "complete_t",
        "occupancy_ns",
        "billed_by_window",
        "on_complete",
    )

    def __init__(self, app_id, kind, cycles, power_w, seq=0,
                 on_complete=None):
        if cycles <= 0:
            raise ValueError("command must have positive cycles")
        if power_w < 0:
            raise ValueError("command power must be non-negative")
        self.app_id = app_id
        self.kind = kind
        self.cycles = float(cycles)
        self.power_w = float(power_w)
        self.seq = seq
        self.submit_t = None
        self.dispatch_t = None
        self.complete_t = None
        self.occupancy_ns = 0.0
        self.billed_by_window = False
        self.on_complete = on_complete

    def __repr__(self):
        return "Command(app={}, kind={!r}, seq={})".format(
            self.app_id, self.kind, self.seq
        )


class _Inflight:
    __slots__ = ("command", "done", "last_update", "occupancy")

    def __init__(self, command, now):
        self.command = command
        self.done = 0.0
        self.last_update = now
        self.occupancy = 0.0   # device-share integral in ns


class CommandEngine:
    """Executes commands concurrently with shared-unit slowdown and power.

    With ``k`` commands in flight, each progresses at
    ``freq_factor * parallel_efficiency(k) / k`` of nominal speed, and rail
    power follows :class:`repro.hw.power.AccelPowerModel`.
    """

    def __init__(
        self,
        sim,
        rail,
        freq_domain,
        power_model,
        name,
        parallelism=2,
        parallel_efficiency=(1.0, 1.55, 1.9, 2.1),
        completion_delay=0,
    ):
        self.sim = sim
        self.rail = rail
        self.freq_domain = freq_domain
        self.power_model = power_model
        self.name = name
        self.parallelism = parallelism
        self.parallel_efficiency = parallel_efficiency
        self.completion_delay = completion_delay
        self.nominal_freq = freq_domain.opps[-1].freq_hz
        self._freq_factors = tuple(
            power_model.freq_factor(opp, self.nominal_freq)
            for opp in freq_domain.opps
        )
        self._inflight = []
        # cycles/s per command since the in-flight set or the OPP last changed
        self._current_speed = 0.0
        self._completion_event = None
        self.log = EventTrace(name + ".commands")
        # numbers this engine's commands: seq labels count per boot
        self.unit_seq = itertools.count()
        self.busy_trace = StepTrace(0.0, name=name + ".busy")
        self.usage_traces = {}
        freq_domain.changed.subscribe(self._on_freq_change)
        self._update_power()

    # -- dispatch interface (used by the kernel driver) ---------------------

    @property
    def inflight_count(self):
        return len(self._inflight)

    @property
    def has_room(self):
        return len(self._inflight) < self.parallelism

    @property
    def is_drained(self):
        """True when no command is in flight."""
        return not self._inflight

    def inflight_apps(self):
        """App ids of all in-flight commands (with duplicates)."""
        return [entry.command.app_id for entry in self._inflight]

    def shutdown(self):
        """Drop the frequency subscribers and in-flight completion callbacks."""
        self.freq_domain.changed.clear()
        for entry in self._inflight:
            entry.command.on_complete = None

    def dispatch(self, command):
        """Begin executing ``command``; completion is reported via callback."""
        if not self.has_room:
            raise RuntimeError("{}: no execution slot free".format(self.name))
        now = self.sim.now
        command.dispatch_t = now
        self._settle(now)
        self._inflight.append(_Inflight(command, now))
        self._current_speed = self._speed()
        self.log.add((now, _DISPATCH, command.app_id, command.kind,
                      command.seq, command.power_w))
        self._usage_trace(command.app_id).add(now, 1.0)
        self._reschedule()
        self._update_power()

    # -- execution dynamics -------------------------------------------------

    def _speed(self):
        """Per-command progress rate in cycles/second."""
        k = len(self._inflight)
        if k == 0:
            return 0.0
        idx = min(k, len(self.parallel_efficiency)) - 1
        efficiency = self.parallel_efficiency[idx]
        domain = self.freq_domain
        return domain.opps[domain.index].freq_hz * efficiency / k

    def _settle(self, now):
        """Advance progress for the elapsed interval.

        Uses the speed that was in force *during* the interval (cached by
        whoever last changed the in-flight set or the OPP), not the current
        one — a frequency change must not retroactively re-price past
        execution.  Callers refresh ``_current_speed`` afterwards.
        """
        speed = self._current_speed
        k = len(self._inflight)
        for entry in self._inflight:
            dt = now - entry.last_update
            entry.done += speed * dt / SEC
            entry.occupancy += dt / k
            entry.last_update = now

    def _reschedule(self):
        """Re-arm the completion check; ``_current_speed`` must be fresh."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._inflight:
            return
        speed = self._current_speed
        soonest = None
        for entry in self._inflight:
            remaining = entry.command.cycles - entry.done
            if remaining < 0.0:
                remaining = 0.0
            if soonest is None or remaining < soonest:
                soonest = remaining
        delay = max(int(soonest / speed * SEC), 1) if speed > 0 else 1
        self._completion_event = self.sim.call_later(delay, self._check_completions)

    def _check_completions(self):
        now = self.sim.now
        self._settle(now)
        finished = [
            entry
            for entry in self._inflight
            if entry.command.cycles - entry.done <= 1e-6
        ]
        for entry in finished:
            self._inflight.remove(entry)
            command = entry.command
            command.complete_t = now
            command.occupancy_ns = entry.occupancy
            self.log.add((now, _COMPLETE, command.app_id, command.kind,
                          command.seq))
            self._usage_trace(command.app_id).add(now, -1.0)
            if command.on_complete is not None:
                # Interrupt/notification latency before the driver hears
                # about the completion.
                if self.completion_delay > 0:
                    self.sim.call_later(self.completion_delay,
                                        command.on_complete, command)
                else:
                    self.sim.call_soon(command.on_complete, command)
        self._current_speed = self._speed()
        self._reschedule()
        self._update_power()

    def _on_freq_change(self, _opp):
        self._settle(self.sim.now)
        self._current_speed = self._speed()
        self._reschedule()
        self._update_power()

    def _update_power(self):
        powers = [entry.command.power_w for entry in self._inflight]
        index = self.freq_domain.index
        watts = self.power_model.scaled_rail_power(
            self.freq_domain.opps[index], self._freq_factors[index], powers
        )
        self.rail.set_part(self.name, watts)
        self.busy_trace.set(self.sim.now, 1.0 if self._inflight else 0.0)

    def utilization(self, t0, t1):
        """Fraction of [t0, t1) with at least one command in flight."""
        if t1 <= t0:
            return 0.0
        return self.busy_trace.integrate(t0, t1) / (t1 - t0)

    def _usage_trace(self, app_id):
        if app_id not in self.usage_traces:
            self.usage_traces[app_id] = StepTrace(
                0.0, name="{}.usage.{}".format(self.name, app_id)
            )
        return self.usage_traces[app_id]
