"""DVFS governors with per-context state.

The governor is ondemand-shaped: jump to the top OPP under high utilization,
step down under low utilization.  Crucially, *all* governor state (the
chosen OPP and the in-progress utilization window) is kept per context.
Contexts are the hook psbox uses for power-state virtualization: every psbox
gets its own context, plus one shared "world" context for everything else.
While a context is inactive its DVFS state is frozen; switching contexts
saves the hardware OPP into the old context and programs the new context's
OPP — so no app observes another app's lingering frequency state.
"""

from repro.sim.clock import from_msec
from repro.sim.trace import EventTrace

WORLD = "world"

# the shape of a ``governor.<domain>`` log record
_SWITCH = ("switch", "key", "expected", "actual")


class _ContextState:
    __slots__ = ("index", "busy", "wall")

    def __init__(self, index):
        self.index = index
        self.busy = 0.0
        self.wall = 0


class OndemandGovernor:
    """Ondemand-style governor over a :class:`repro.hw.dvfs.FreqDomain`.

    ``utilization_fn(t0, t1)`` must return the device's mean utilization in
    [0, 1] over the interval — core-busy fraction for the CPU cluster,
    inflight fraction for accelerators.
    """

    def __init__(
        self,
        sim,
        domain,
        utilization_fn,
        window=from_msec(25),
        tick=from_msec(5),
        up_threshold=0.75,
        down_threshold=0.30,
        initial_index=0,
    ):
        self.sim = sim
        self.domain = domain
        self.utilization_fn = utilization_fn
        self.window = window
        self.tick = tick
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.contexts = {WORLD: _ContextState(initial_index)}
        self.active = WORLD
        self.clamps = {}
        self.log = EventTrace("governor." + domain.name)
        # obs names, built once: the track and counter-track names, and
        # the metrics a session binds (``obs.instruments[self]``)
        self._track = "governor." + domain.name
        self._opp_sample = "opp." + domain.name
        self.obs_names = {
            "switches": ("counter",
                         "governor.{}.switches".format(domain.name)),
            "transitions": ("counter",
                            "governor.{}.transitions".format(domain.name)),
        }
        self._last_settle = sim.now
        domain.set_opp(initial_index)
        self._tick_event = sim.call_later(tick, self._on_tick)
        self.enabled = True

    # -- context management (power-state virtualization hook) -------------------

    def context(self, key):
        if key not in self.contexts:
            # New contexts start from the lowest OPP: a fresh psbox must not
            # inherit the world's lingering frequency.
            self.contexts[key] = _ContextState(0)
        return self.contexts[key]

    def switch_context(self, key):
        """Save the active context's OPP, restore ``key``'s OPP."""
        self._settle()
        domain = self.domain
        self.contexts[self.active].index = domain.index
        state = self.context(key)
        if not 0 <= state.index <= domain.max_index:
            raise ValueError(
                "context {!r} restores OPP index {}, outside the domain's "
                "OPP table 0..{}".format(key, state.index, domain.max_index)
            )
        self.active = key
        target = self._clamped(key, state.index)
        plan = self.sim.faults
        if plan is None or not plan.corrupts("governor.restore"):
            domain.set_opp(target)
        # else: the restore write was lost — the hardware keeps the previous
        # context's OPP, leaking lingering frequency state across the
        # boundary (exactly what repro.check's vstate invariant catches).
        actual = domain.index
        self.log.add((self.sim.now, _SWITCH, key, target, actual))
        obs = self.sim.obs
        if obs is not None:
            instruments = obs.instruments[self]
            tracer = instruments.tracer
            if tracer is not None:
                tracer.instant("ctx.switch", cat="governor",
                               track=self._track, key=str(key),
                               expected=target, actual=actual)
                tracer.sample(self._opp_sample, track=self._track,
                              opp=actual)
            instruments["switches"].value += 1
        state.index = actual

    # -- OPP clamping (powercap actuator hook) -----------------------------------

    def set_clamp(self, key, max_index):
        """Cap context ``key``'s OPP choices at ``max_index``.

        The clamp constrains the governor's decisions — it does not shrink
        the domain's OPP table, so saved context indices always stay valid.
        Takes effect immediately when ``key`` is the active context.
        """
        if not 0 <= max_index <= self.domain.max_index:
            raise ValueError(
                "clamp index {} outside the domain's OPP table 0..{}".format(
                    max_index, self.domain.max_index
                )
            )
        self.clamps[key] = max_index
        state = self.context(key)
        if state.index > max_index:
            state.index = max_index
            if self.active == key:
                self.domain.set_opp(max_index)

    def clear_clamp(self, key):
        """Remove ``key``'s OPP clamp (no-op when none is set)."""
        self.clamps.pop(key, None)

    def _clamped(self, key, index):
        limit = self.clamps.get(key)
        return index if limit is None else min(index, limit)

    def drop_context(self, key):
        """Forget a context (psbox destroyed)."""
        if key == WORLD:
            raise ValueError("cannot drop the world context")
        self.contexts.pop(key, None)
        self.clamps.pop(key, None)
        if self.active == key:
            self.active = WORLD
            self.domain.set_opp(self.contexts[WORLD].index)

    # -- the governor loop -------------------------------------------------------

    def _settle(self):
        now = self.sim.now
        last = self._last_settle
        if now > last:
            elapsed = now - last
            util = self.utilization_fn(last, now)
            state = self.contexts[self.active]
            state.busy += util * elapsed
            state.wall += elapsed
        self._last_settle = now

    def _on_tick(self):
        self._tick_event = self.sim.call_later(self.tick, self._on_tick)
        if not self.enabled:
            return
        self._settle()
        state = self.contexts[self.active]
        if state.wall < self.window:
            return
        utilization = state.busy / state.wall if state.wall else 0.0
        state.busy = 0.0
        state.wall = 0
        if utilization > self.up_threshold:
            self._program(self._clamped(self.active, self.domain.max_index))
        elif utilization < self.down_threshold:
            self._program(self.domain.index - 1)
        state.index = self.domain.index

    def _program(self, index):
        """Write one tick decision to the hardware (fault injection site).

        An injected ``drop`` loses the write (the domain sticks at its
        current OPP); an injected ``hold`` lands it late, modelling an OPP
        transition latency spike.  Without an armed plan this is exactly
        ``domain.set_opp``.
        """
        plan = self.sim.faults
        if plan is not None:
            if plan.drops("governor.opp"):
                return
            lag = plan.hold_ns("governor.opp")
            if lag > 0:
                self.sim.call_later(lag, self.domain.set_opp, index)
                return
        previous = self.domain.index
        self.domain.set_opp(index)
        obs = self.sim.obs
        if obs is not None and self.domain.index != previous:
            instruments = obs.instruments[self]
            tracer = instruments.tracer
            if tracer is not None:
                index = self.domain.index
                tracer.instant("opp.transition", cat="governor",
                               track=self._track, index=index,
                               ctx=str(self.active))
                tracer.sample(self._opp_sample, track=self._track, opp=index)
            instruments["transitions"].value += 1

    def stop(self):
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
