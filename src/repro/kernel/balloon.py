"""Temporal balloons: one fair scheduler with §4.2's five phases.

Accelerators and NICs share the protocol.  Outside a balloon the pending
unit of the app with the minimal virtual share dispatches first (work
conserving).  A psbox on the device turns its turns into balloons:

1. *Drain others* — stop dispatching; wait until the device has finished
   every outstanding unit.
2. *Flush psbox* — switch the device to the psbox's virtualized power state
   and dispatch the units the psbox accumulated meanwhile.
3. *Serve psbox* — only psbox units dispatch; everyone else buffers.
4. *Drain psbox* — once others deserve the device, the psbox app stops
   using it, or an admission gate closes, stop and wait for psbox units to
   finish.
5. *Flush others* — restore the world power state and resume normal
   dispatch in queueing order.

:class:`BalloonScheduler` owns the phase machine; subclasses supply what
differs per device: how a unit starts, the room and idle tests, and the
billing rule (``repro.kernel.accel_sched``, ``repro.kernel.net_sched``).
"""

from collections import deque

from repro.kernel.admission import AdmissionGate
from repro.sim.trace import EventTrace

NORMAL = "normal"
DRAIN_OTHERS = "drain_others"
SERVE = "serve"
DRAIN_PSBOX = "drain_psbox"
DRAINING = (DRAIN_OTHERS, DRAIN_PSBOX)

# record shapes of the ``<name>.sched`` log (repro.sim.trace.EventTrace)
_COMPLETE = ("complete", "app", "seq")
_DRAIN_PSBOX = ("drain_psbox", "app")
_DISPATCH = ("dispatch", "app", "seq", "wait")
_DRAIN_OTHERS = ("drain_others", "app")
_WINDOW_OPEN = ("window_open", "app")


class _AppQueue:
    __slots__ = ("app", "pending", "vruntime")

    def __init__(self, app):
        self.app = app
        self.pending = deque()
        self.vruntime = 0.0   # the fair share: device ns or bytes, / weight


class BalloonScheduler:
    """Fair per-app scheduler in front of one device, with temporal balloons.

    ``name`` prefixes the event log (``<name>.sched``) and the fault site
    (``<name>.drain``); metrics and spans carry the device's own name.
    ``_SUBMIT`` and ``_WINDOW_CLOSE`` are the shapes of the two records a
    subclass may extend: :meth:`_enqueue` and :meth:`_bill_close` give
    the values of the extra fields.
    """

    _SUBMIT = ("submit", "app", "seq")
    _WINDOW_CLOSE = ("window_close", "app")

    def __init__(self, kernel, device, name, state_holder, draining_enabled,
                 yield_quantum):
        self.kernel = kernel
        self.sim = kernel.sim
        self.device = device
        self.name = name
        self.state_holder = state_holder
        self.draining_enabled = draining_enabled
        # Hysteresis on the serve->drain decision: without a quantum the
        # balloon would flap at credit-balance speed and the drain overhead
        # would never amortize.
        self.yield_quantum = yield_quantum

        self.queues = {}
        self.state = NORMAL
        self.psbox_app = None
        self.admission = AdmissionGate(self.sim, self._pump)
        self.log = EventTrace(name + ".sched")
        self.balloon_in_hooks = []   # fn(app, t)
        self.balloon_out_hooks = []  # fn(app, t)

        self._window_open_t = None
        self._drain_start_t = None
        self._flush_remaining = 0
        self._fault_hold_until = None
        self._fault_site = name + ".drain"
        self._phase_span = None   # obs: span of the current balloon phase
        # obs names, built once: each phase span's name, and the metrics
        # a session binds (``obs.instruments[self]``)
        dev = device.name
        self._phase_names = {phase: dev + "." + phase for phase in
                             ("drain_others", "serve", "drain_psbox")}
        self.obs_names = {
            "dispatched": ("counter", dev + ".dispatched"),
            "dispatch_wait_ns": ("histogram", dev + ".dispatch_wait_ns"),
            "drain_ns": ("histogram", dev + ".drain_ns"),
            "balloons": ("counter", dev + ".balloons"),
            "window_ns": ("histogram", dev + ".window_ns"),
        }

    # -- what differs per device (defaults fit an accelerator) ----------------

    def _has_room(self):
        return self.device.has_room

    def _device_idle(self):
        """No psbox unit left on the device (one of serve's yield tests)."""
        return self.device.is_drained

    def _start(self, q, unit):
        """Hand ``unit`` (popped from ``q``) to the device."""
        raise NotImplementedError

    def _on_complete(self, unit):
        """Billing when the device reports ``unit`` done."""

    def _begin_drain(self):
        """Per-device bookkeeping as phase 1 starts."""

    def _drain_tick(self):
        """Accounting on every pump while others drain."""

    def _bill_serve(self, q):
        """Billing on every pump while the window is open."""

    def _bill_open(self, q):
        """Bill the drain to the psbox app as its window opens."""

    def _bill_close(self, q):
        """Settle the window's bill; returns the values of the fields
        ``_WINDOW_CLOSE`` adds to ``window_close``."""
        return ()

    def _switch_context(self, key):
        self.state_holder.switch_context(key)

    # -- observability and fault hooks ----------------------------------------

    def _obs_phase(self, phase, **args):
        """Close the current balloon-phase span and open the next.

        The drain_others -> serve -> drain_psbox progression becomes a
        chain of sibling spans (``<device>.<phase>``) on this device's
        track; passing None just closes the chain (balloon over).
        """
        obs = self.sim.obs
        if obs is None:
            return
        tracer = obs.instruments[self].tracer
        if tracer is None:
            return
        tracer.end(self._phase_span)
        self._phase_span = None
        if phase is not None:
            self._phase_span = tracer.begin(
                self._phase_names[phase], cat="balloon",
                track=self.device.name, **args
            )

    def _fault_held(self):
        """True while an injected stall pins the current drain transition.

        One hold is drawn per drain phase; a re-pump is scheduled for when
        it expires.  Pure read (False) without an armed fault plan.
        """
        now = self.sim.now
        if self._fault_hold_until is not None:
            if now < self._fault_hold_until:
                return True
            self._fault_hold_until = None
            return False
        plan = self.sim.faults
        if plan is None:
            return False
        hold = plan.hold_ns(self._fault_site)
        if hold <= 0:
            return False
        self._fault_hold_until = now + hold
        self.sim.call_later(hold, self._pump)
        return True

    # -- submission -----------------------------------------------------------

    def _queue_for(self, app):
        if app.id not in self.queues:
            self.queues[app.id] = _AppQueue(app)
        return self.queues[app.id]

    def _enqueue(self, app, unit, user_cb, extra=()):
        """Queue ``unit`` for ``app`` and log its submission; ``extra``
        holds the values of the fields ``_SUBMIT`` adds."""
        now = self.sim.now
        unit.submit_t = now
        unit.on_complete = self._completion_wrapper(user_cb)
        self._queue_for(app).pending.append(unit)
        self.log.add((now, self._SUBMIT, app.id, unit.seq) + extra)
        return unit

    def _completion_wrapper(self, user_cb):
        # The device hands the unit back; closing over it instead would
        # make every unit a cycle (unit -> on_complete -> cell -> unit)
        # that only the cyclic collector frees.
        def on_complete(unit):
            self.log.add((self.sim.now, _COMPLETE, unit.app_id, unit.seq))
            self._on_complete(unit)
            if user_cb is not None:
                user_cb(unit)
            self._pump()
        return on_complete

    # -- psbox control (called by the psbox manager) --------------------------

    def set_psbox(self, app):
        """Enter (app) or leave (None) temporal-balloon mode for ``app``."""
        if app is not None and self.psbox_app is not None:
            raise RuntimeError(
                "{}: psbox already active for app {}".format(
                    self.name, self.psbox_app.id
                )
            )
        if app is None and self.psbox_app is not None:
            # Leave gracefully: close the window where it stands.
            if self._window_open_t is not None:
                self._close_window()
            self.state = NORMAL
            self._obs_phase(None)   # a drain that never opened a window
            self._fault_hold_until = None
            self.psbox_app = None
            self._pump()
            return
        self.psbox_app = app
        if app is not None:
            self._queue_for(app)
            self._pump()

    # -- the dispatch pump ----------------------------------------------------

    def _min_other_vruntime(self):
        psbox_app = self.psbox_app
        lowest = None
        for q in self.queues.values():
            if q.pending and (psbox_app is None or q.app.id != psbox_app.id):
                if lowest is None or q.vruntime < lowest:
                    lowest = q.vruntime
        return lowest

    def _pick(self):
        """The pending, admitted queue with the minimal virtual share."""
        admission = self.admission
        gating = len(admission) > 0
        best = None
        wake = None
        for q in self.queues.values():
            if not q.pending:
                continue
            if gating and admission.gated(q.app.id):
                edge = admission.next_on_edge(q.app.id)
                wake = edge if wake is None else min(wake, edge)
                continue
            if best is None or q.vruntime < best.vruntime:
                best = q
        if wake is not None:
            admission.arm(wake)
        return best

    def _pump(self):
        if self.state == DRAIN_OTHERS:
            self._drain_tick()
            if not self.device.is_drained or self._fault_held():
                return
            self._open_window()
        if self.state == DRAIN_PSBOX:
            if not self.device.is_drained or self._fault_held():
                return
            self._close_window()
        if self.state == SERVE:
            self._pump_serve()
            return
        self._pump_normal()

    def _pump_normal(self):
        while True:
            q = self._pick()
            if q is None:
                return
            if self.psbox_app is not None and q.app.id == self.psbox_app.id:
                # Balloons begin regardless of room: draining is precisely
                # about waiting out a full device.
                self._begin_balloon()
                return
            if not self._has_room():
                return
            self._dispatch(q, q.pending.popleft())

    def _pump_serve(self):
        q = self._queue_for(self.psbox_app)
        self._bill_serve(q)
        # Phase 2, "flush psbox": the units that were buffered while we
        # drained must go out unconditionally — the drain was already paid
        # for.  Only afterwards may the policy yield the device.
        flushing = self._flush_remaining > 0
        min_other = self._min_other_vruntime()
        idle = not q.pending and self._device_idle()
        overdrawn = (min_other is not None
                     and q.vruntime > min_other + self.yield_quantum)
        gated = self.admission.gated(self.psbox_app.id)
        if gated:
            self.admission.arm(self.admission.next_on_edge(self.psbox_app.id))
        # The balloon closes when others deserve the device *or* when the
        # psbox app stops using it — mirroring the CPU balloon, which ends
        # when the app has no runnable member.  Keeping windows tied to
        # actual device use makes an app's observation structure identical
        # whether it runs alone or co-runs.  An admission gate's off-phase
        # duty-cycles the balloon the same way (powercap actuator).
        should_yield = not flushing and (overdrawn or idle or gated)
        if should_yield:
            self.state = DRAIN_PSBOX
            self.log.add((self.sim.now, _DRAIN_PSBOX, self.psbox_app.id))
            self._obs_phase("drain_psbox", app=self.psbox_app.id)
            if self.device.is_drained:
                if self._fault_held():
                    return
                self._close_window()
                self._pump_normal()
            return
        while self._has_room() and q.pending:
            self._flush_remaining = max(0, self._flush_remaining - 1)
            self._dispatch(q, q.pending.popleft())

    def _dispatch(self, q, unit):
        now = self.sim.now
        wait = now - unit.submit_t
        self.log.add((now, _DISPATCH, unit.app_id, unit.seq, wait))
        obs = self.sim.obs
        if obs is not None:
            instruments = obs.instruments[self]
            instruments["dispatched"].value += 1
            instruments["dispatch_wait_ns"].observe(wait)
        self._start(q, unit)

    # -- balloon phase transitions --------------------------------------------

    def _begin_balloon(self):
        if not self.draining_enabled:
            # Ablation: skip draining entirely; open the window immediately
            # even with foreign units in flight (leaky boundary).
            self._open_window()
            self._pump_serve()
            return
        now = self.sim.now
        self.state = DRAIN_OTHERS
        self._drain_start_t = now
        self._begin_drain()
        self.log.add((now, _DRAIN_OTHERS, self.psbox_app.id))
        self._obs_phase("drain_others", app=self.psbox_app.id)
        if self.device.is_drained:
            if self._fault_held():
                return
            self._open_window()
            self._pump_serve()

    def _open_window(self):
        """Others drained: switch power state, start serving the psbox."""
        now = self.sim.now
        q = self._queue_for(self.psbox_app)
        self._bill_open(q)
        self.state = SERVE
        obs = self.sim.obs
        if obs is not None:
            instruments = obs.instruments[self]
            if self._drain_start_t is not None:
                instruments["drain_ns"].observe(now - self._drain_start_t)
            instruments["balloons"].value += 1
        self._drain_start_t = None
        self._window_open_t = now
        self._flush_remaining = len(q.pending)
        if self.state_holder is not None:
            self._switch_context(self._ctx_key())
        self.log.add((now, _WINDOW_OPEN, self.psbox_app.id))
        self._obs_phase("serve", app=self.psbox_app.id)
        for hook in self.balloon_in_hooks:
            hook(self.psbox_app, now)

    def _close_window(self):
        """Psbox drained: settle the window bill, restore the world state."""
        now = self.sim.now
        extra = self._bill_close(self._queue_for(self.psbox_app))
        if self.state_holder is not None:
            self._switch_context("world")
        self.log.add((now, self._WINDOW_CLOSE, self.psbox_app.id) + extra)
        obs = self.sim.obs
        if obs is not None and self._window_open_t is not None:
            obs.instruments[self]["window_ns"].observe(
                now - self._window_open_t)
        self._obs_phase(None)
        for hook in self.balloon_out_hooks:
            hook(self.psbox_app, now)
        self._window_open_t = None
        self.state = NORMAL

    def _ctx_key(self):
        return "psbox.{}".format(self.psbox_app.id)

    # -- teardown -------------------------------------------------------------

    def shutdown(self):
        """Cut this scheduler's cycles once its boot has ended.

        Drops the kernel back-reference, the balloon hooks, the admission
        gate's pump and the completion callbacks of units still queued
        (the device drops those of units in flight).  Queues, bills and
        the log stay readable.
        """
        self.kernel = None
        self.balloon_in_hooks.clear()
        self.balloon_out_hooks.clear()
        self.admission.shutdown()
        for q in self.queues.values():
            for unit in q.pending:
                unit.on_complete = None

    # -- metrics --------------------------------------------------------------

    def dispatch_waits(self, app_id=None, t0=None, t1=None):
        """Submit-to-dispatch latencies (ns), as §6.2 reports them."""
        waits = []
        for _t, _kind, payload in self.log.filter(kind="dispatch", t0=t0, t1=t1):
            if app_id is None or payload["app"] == app_id:
                waits.append(payload["wait"])
        return waits
