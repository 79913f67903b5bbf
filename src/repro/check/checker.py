"""Runtime invariant checking over a live kernel.

The :class:`InvariantChecker` is an event-bus observer: it subscribes to the
kernel's scheduling/governor :class:`~repro.sim.trace.EventTrace` logs and
runs a cheap periodic sweep, asserting the paper's guarantees while the
simulation runs:

* **balloon exclusivity** — no foreign entity runs inside an active spatial
  balloon (CPU) or temporal balloon window (accelerators, NIC);
* **vruntime monotonicity** — CFS entity and member vruntimes never move
  backwards (credits are only ever consumed or repaid, never refunded);
* **loan conservation** — balloon loans are split evenly and repay at least
  the borrowed total (§4.2 step 5);
* **energy conservation** — per component, observation windows are pairwise
  disjoint across sandboxes, the window-attributed energy never exceeds the
  rail's physical energy (Σ per-psbox + unattributed ≈ rail), and each
  sandbox's billed reading equals window energy plus idle fill;
* **vstate restore correctness** — a governor context switch programs
  exactly the saved (clamped) OPP;
* **liveness** — IPI shootdowns complete and drain phases converge within
  configurable bounds (this is what detects dropped IPIs / stuck drains);
* **powercap cap compliance** — opt-in via :meth:`watch_powercap`.

The checker is read-only: it never mutates kernel state and draws no RNG,
so an attached checker leaves the simulated schedule bit-identical (its own
events interleave without reordering anyone else's).  Overhead is opt-in —
nothing runs unless ``attach()`` is called.
"""

from dataclasses import dataclass

from repro.sim.clock import from_msec
from repro.check.report import CheckReport, CheckViolation, Violation
from repro.kernel.balloon import DRAINING, SERVE
from repro.kernel.net_sched import PacketScheduler


@dataclass
class CheckerConfig:
    """Cadence and tolerances of the invariant sweep."""

    tick: int = from_msec(5)             # periodic sweep period
    window: int = from_msec(25)          # energy/cap check granularity
    energy_rel_tol: float = 1e-6         # conservation slack, relative to rail
    energy_abs_tol_j: float = 1e-9
    vruntime_eps: float = 1e-6
    loan_eps: float = 1e-3
    shootdown_bound: int = from_msec(2)  # IPI pending beyond this = stuck
    accel_drain_bound: int = from_msec(100)
    net_drain_bound: int = from_msec(1000)
    cap_tolerance: float = 0.10          # allowed overshoot fraction
    cap_settle: int = from_msec(1500)    # grace before cap checks begin


class InvariantChecker:
    """Attachable runtime verifier for one kernel."""

    SKIP_COMPONENTS = ("display", "gps")   # §7 special rules, no windows

    def __init__(self, kernel, config=None, strict=False):
        self.kernel = kernel
        self.sim = kernel.sim
        self.config = config or CheckerConfig()
        self.strict = strict
        self.report = CheckReport()
        self.attached = False
        self._subscriptions = []     # (trace, fn) pairs for detach
        self._tick_event = None
        self._event_check_pending = False
        self._entity_vr = {}         # (app_id, core_id) -> last vruntime
        self._member_vr = {}         # task id -> last member_vruntime
        self._drain_since = {}       # device name -> drain phase start t
        self._flagged_cosched = set()
        self._energy_checked_to = 0
        self._powercap = None        # the watched PowerCapController
        self._cap_checked_to = None

    # -- lifecycle ------------------------------------------------------------

    def attach(self):
        """Start observing; returns self."""
        if self.attached:
            return self
        self.attached = True
        kernel = self.kernel
        if kernel.smp is not None:
            self._subscribe(kernel.smp.log, self._on_smp_record)
        for name, sched in kernel.balloon_scheds.items():
            handler = self._device_handler(name, self._drain_bound(sched))
            self._subscribe(sched.log, handler)
        for governor in (kernel.cpu_governor, kernel.gpu_governor):
            if governor is not None:
                self._subscribe(governor.log, self._governor_handler(governor))
        self._energy_checked_to = self.sim.now
        self._tick_event = self.sim.call_later(self.config.tick, self._tick)
        return self

    def detach(self):
        """Stop observing (the report stays available)."""
        if not self.attached:
            return
        self.attached = False
        for trace, fn in self._subscriptions:
            trace.unsubscribe(fn)
        self._subscriptions = []
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def watch_powercap(self, controller):
        """Also assert the controller's root cap on rolling windows
        (``config.cap_tolerance``, after ``config.cap_settle``)."""
        self._powercap = controller
        return self

    def _subscribe(self, trace, fn):
        trace.subscribe(fn)
        self._subscriptions.append((trace, fn))

    # -- violation plumbing ---------------------------------------------------

    def _flag(self, invariant, component, event, message):
        violation = Violation(self.sim.now, invariant, component, event,
                              message)
        if len(self.report.violations) < self.report.max_violations:
            self.report.violations.append(violation)
        obs = self.sim.obs
        if obs is not None:
            obs.tracer.instant("violation." + invariant, cat="check",
                               track="check", component=component,
                               event=event, message=message)
            obs.metrics.inc("check.violations")
            obs.metrics.inc("check.violations." + invariant)
            if obs.flight is not None:
                obs.flight.on_violation(violation)
        if self.strict:
            raise CheckViolation(violation)

    # -- event handlers -------------------------------------------------------

    def _on_smp_record(self, t, kind, payload):
        if kind == "loan_redistribution":
            self._check_loan_conservation(t, payload)
        elif kind in ("cosched_begin", "cosched_end"):
            self._schedule_event_check()

    def _drain_bound(self, sched):
        if isinstance(sched, PacketScheduler):
            return self.config.net_drain_bound
        return self.config.accel_drain_bound

    def _device_handler(self, name, bound):
        def handler(t, kind, payload):
            if kind in ("drain_others", "drain_psbox"):
                self._drain_since[name] = t
            elif kind in ("window_open", "window_close"):
                since = self._drain_since.pop(name, None)
                self.report.checks += 1
                if since is not None and t - since > bound:
                    self._flag(
                        "drain_liveness", name, kind,
                        "drain took {:.1f} ms (bound {:.1f} ms)".format(
                            (t - since) / 1e6, bound / 1e6
                        ),
                    )
                self._schedule_event_check()
        return handler

    def _governor_handler(self, governor):
        name = "governor." + governor.domain.name

        def handler(t, kind, payload):
            if kind != "switch":
                return
            self.report.checks += 1
            if payload["actual"] != payload["expected"]:
                self._flag(
                    "vstate_restore", name, "switch",
                    "context {!r} restored OPP {} but hardware is at "
                    "{}".format(payload["key"], payload["expected"],
                                payload["actual"]),
                )
        return handler

    def _schedule_event_check(self):
        """Coalesce per-event state checks to the end of the cascade."""
        if self._event_check_pending or not self.attached:
            return
        self._event_check_pending = True
        self.sim.call_soon(self._event_check)

    def _event_check(self):
        self._event_check_pending = False
        if not self.attached:
            return
        self._check_exclusivity()
        self._check_vruntime_monotonic()

    # -- the periodic sweep ---------------------------------------------------

    def _tick(self):
        self._tick_event = self.sim.call_later(self.config.tick, self._tick)
        self._check_exclusivity()
        self._check_vruntime_monotonic()
        self._check_shootdown_liveness()
        self._check_stuck_drains()
        now = self.sim.now
        if now - self._energy_checked_to >= self.config.window:
            self._check_energy_conservation(self._energy_checked_to, now)
            self._energy_checked_to = now
        self._check_cap_compliance()

    # -- invariants -----------------------------------------------------------

    def _check_loan_conservation(self, t, payload):
        self.report.checks += 1
        eps = self.config.loan_eps
        shares = payload["shares"]
        repaid = sum(shares)
        if repaid + eps < payload["total"]:
            self._flag(
                "loan_conservation", "smp", "loan_redistribution",
                "app {} repaid {:.3f} of a {:.3f} loan".format(
                    payload["app"], repaid, payload["total"]
                ),
            )
        if max(shares) - min(shares) > eps:
            self._flag(
                "loan_conservation", "smp", "loan_redistribution",
                "app {} loan shares not even: {}".format(
                    payload["app"], shares
                ),
            )

    def _check_exclusivity(self):
        kernel = self.kernel
        smp = kernel.smp
        if smp is not None:
            cosched = smp.active_cosched
            if cosched is not None:
                self.report.checks += 1
                for sched in smp.cores:
                    if sched.core.id in cosched.pending_cores:
                        continue   # shootdown still in flight: leak is legal
                    current = sched.current
                    if current is not None and current.group is not cosched.group:
                        self._flag(
                            "balloon_exclusivity", "smp", "cosched",
                            "core {} runs app {} inside app {}'s spatial "
                            "balloon".format(
                                sched.core.id, current.group.app.id,
                                cosched.group.app.id,
                            ),
                        )
        for name, sched in kernel.balloon_scheds.items():
            if sched.state != SERVE:
                continue
            self.report.checks += 1
            foreign = [
                app_id for app_id in sched.device.inflight_apps()
                if app_id != sched.psbox_app.id
            ]
            if foreign:
                doing = ("transmitting" if isinstance(sched, PacketScheduler)
                         else "in flight")
                self._flag(
                    "balloon_exclusivity", name, "serve",
                    "apps {} {} inside app {}'s window".format(
                        sorted(set(foreign)), doing, sched.psbox_app.id
                    ),
                )

    def _check_vruntime_monotonic(self):
        smp = self.kernel.smp
        if smp is None:
            return
        self.report.checks += 1
        eps = self.config.vruntime_eps
        for group in smp.groups.values():
            for entity in group.entities:
                key = (group.app.id, entity.core_id)
                last = self._entity_vr.get(key)
                if last is not None and entity.vruntime < last - eps:
                    self._flag(
                        "vruntime_monotonic", "cfs", "entity",
                        "app {} core {} vruntime moved back "
                        "{:.3f} -> {:.3f}".format(
                            group.app.id, entity.core_id, last,
                            entity.vruntime,
                        ),
                    )
                self._entity_vr[key] = entity.vruntime
        for task in self.kernel.tasks:
            last = self._member_vr.get(task.id)
            if last is not None and task.member_vruntime < last - eps:
                self._flag(
                    "vruntime_monotonic", "cfs", "member",
                    "task {} member vruntime moved back "
                    "{:.3f} -> {:.3f}".format(
                        task.name, last, task.member_vruntime
                    ),
                )
            self._member_vr[task.id] = task.member_vruntime

    def _check_shootdown_liveness(self):
        smp = self.kernel.smp
        if smp is None:
            return
        cosched = smp.active_cosched
        if cosched is None or not cosched.pending_cores:
            return
        self.report.checks += 1
        waited = self.sim.now - cosched.started_at
        # Dedup by the episode's stable identity, not id(): CPython reuses
        # addresses, so a later cosched could collide with a flagged one and
        # go unreported — nondeterministically, since allocation layout
        # varies per process.
        episode = (cosched.group.app.id, cosched.started_at)
        if waited > self.config.shootdown_bound \
                and episode not in self._flagged_cosched:
            self._flagged_cosched.add(episode)
            self._flag(
                "shootdown_liveness", "smp", "cosched",
                "cores {} have not honoured app {}'s shootdown IPI after "
                "{:.2f} ms".format(
                    sorted(cosched.pending_cores), cosched.group.app.id,
                    waited / 1e6,
                ),
            )

    def _check_stuck_drains(self):
        now = self.sim.now
        for name, sched in self.kernel.balloon_scheds.items():
            since = self._drain_since.get(name)
            if since is None:
                continue
            if sched.state not in DRAINING:
                # A leave mid-drain returns the scheduler to normal without
                # a record: the timer is stale, not a stuck drain.
                del self._drain_since[name]
                continue
            self.report.checks += 1
            bound = self._drain_bound(sched)
            if now - since > bound:
                self._drain_since[name] = None   # flag each episode once
                self._flag(
                    "drain_liveness", name, sched.state,
                    "drain stuck for {:.1f} ms (bound {:.1f} ms)".format(
                        (now - since) / 1e6, bound / 1e6
                    ),
                )

    def _check_energy_conservation(self, t0, t1):
        manager = getattr(self.kernel, "psbox_manager", None)
        if manager is None or t1 <= t0:
            return
        platform = self.kernel.platform
        for comp, rail in platform.rails.items():
            if comp in self.SKIP_COMPONENTS:
                continue
            boxes = manager.boxes_bound_to(comp)
            if not boxes:
                continue
            self.report.checks += 1
            rail_j = rail.energy(t0, t1)
            tol = abs(rail_j) * self.config.energy_rel_tol \
                + self.config.energy_abs_tol_j
            # Windows of *different* sandboxes must never overlap: one
            # joule of rail energy is attributable to at most one psbox.
            spans = []
            attributed = 0.0
            for box in boxes:
                joules, covered = box.vmeter.windowed_energy(comp, t0, t1)
                attributed += joules
                for lo, hi in box.vmeter.windows(comp, t0, t1):
                    spans.append((lo, hi, box.app.id))
                # The sandbox's billed reading must be exactly its window
                # share plus idle fill — no energy invented or lost.
                billed = box.vmeter.energy(t0, t1, component=comp)
                idle_j = platform.idle_power(comp) \
                    * (t1 - t0 - covered) / 1e9
                if abs(billed - (joules + idle_j)) > tol:
                    self._flag(
                        "energy_conservation", comp, "billing",
                        "app {} billed {:.9f} J but windows+idle give "
                        "{:.9f} J".format(box.app.id, billed,
                                          joules + idle_j),
                    )
            spans.sort()
            for (a0, a1, app_a), (b0, b1, app_b) in zip(spans, spans[1:]):
                if b0 < a1:
                    self._flag(
                        "energy_conservation", comp, "windows",
                        "windows of apps {} and {} overlap "
                        "[{}, {}) vs [{}, {})".format(
                            app_a, app_b, a0, a1, b0, b1
                        ),
                    )
            if attributed > rail_j + tol:
                self._flag(
                    "energy_conservation", comp, "attribution",
                    "windows attribute {:.9f} J but the rail only drew "
                    "{:.9f} J (unattributed would be negative)".format(
                        attributed, rail_j
                    ),
                )

    def _check_cap_compliance(self):
        if self._powercap is None:
            return
        controller = self._powercap
        tolerance = self.config.cap_tolerance
        root = controller.tree.root
        now = self.sim.now
        if (not controller.running or root.cap_w is None
                or now < self.config.cap_settle):
            return
        if self._cap_checked_to is None:
            self._cap_checked_to = now
            return
        if now - self._cap_checked_to < self.config.window:
            return
        t0, self._cap_checked_to = self._cap_checked_to, now
        self.report.checks += 1
        aggregate = controller.aggregate_power(t0, now)
        if aggregate > root.cap_w * (1.0 + tolerance):
            self._flag(
                "cap_compliance", "powercap", "aggregate",
                "aggregate {:.3f} W exceeds cap {:.3f} W (+{:.0f}% "
                "tolerance) over [{}, {})".format(
                    aggregate, root.cap_w, tolerance * 100, t0, now
                ),
            )
