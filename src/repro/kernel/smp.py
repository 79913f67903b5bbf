"""SMP coordination: task placement, work stealing, and coscheduling.

Coscheduling (spatial balloons) follows the paper's five-step protocol
(§4.2): schedule-in on the initiating core, IPI task shootdown on the other
cores with an initial scheduling loan, billed running (idle cores included),
schedule-out when no entity holds the best credit any more, and loan
redistribution across the psbox's per-core entities.
"""

from repro.kernel.cfs import CoreScheduler, GroupEntity
from repro.sim.clock import from_msec, from_usec
from repro.sim.trace import EventTrace

# record shapes of the ``smp`` log
_COSCHED_BEGIN = ("cosched_begin", "app")
_COSCHED_END = ("cosched_end", "app", "reason")
_LOAN_REDISTRIBUTION = ("loan_redistribution", "app", "total", "surcharge",
                        "shares")


class AppGroup:
    """The kernel-side cgroup of one app: one GroupEntity per core."""

    def __init__(self, app, n_cores):
        self.app = app
        self.entities = [GroupEntity(self, core_id) for core_id in range(n_cores)]
        self.sandboxed = False   # True while the app's CPU psbox is entered
        self.throttled = False   # True during a bandwidth throttle's off-phase

    @property
    def weight(self):
        return self.app.weight

    def active_member_count(self):
        """Tasks READY or RUNNING across all cores."""
        return sum(len(entity.members) for entity in self.entities)


class _CpuThrottle:
    """One app's duty-cycled CPU bandwidth limit (powercap actuator)."""

    __slots__ = ("fraction", "period", "event")

    def __init__(self, fraction, period):
        self.fraction = fraction
        self.period = period
        self.event = None

    @property
    def on_ns(self):
        return max(1, int(self.fraction * self.period))


class _Coschedule:
    """Book-keeping of one active coscheduling (spatial balloon) period."""

    def __init__(self, group, started_at):
        self.group = group
        self.started_at = started_at
        self.pending_cores = set()
        self.window_open = None   # time when every core had switched in
        self.span = None          # obs: the balloon's trace span
        self.ipi_spans = {}       # obs: core id -> in-flight shootdown span


class SmpScheduler:
    """Owns the per-core schedulers and all cross-core policy."""

    #: the metrics a session binds (``obs.instruments[self]``)
    obs_names = {
        "balloons": ("counter", "smp.balloons"),
        "ipi_sent": ("counter", "smp.ipi.sent"),
        "ipi_arrived": ("counter", "smp.ipi.arrived"),
        "shootdown_latency_ns": ("histogram", "smp.shootdown_latency_ns"),
        "balloon_ns": ("histogram", "smp.balloon_ns"),
        "loan_total": ("histogram", "smp.loan_total"),
    }

    def __init__(self, kernel, cluster, ipi_delay=from_usec(15),
                 loans_enabled=True):
        self.kernel = kernel
        self.sim = kernel.sim
        self.cluster = cluster
        self.ipi_delay = ipi_delay
        self.loans_enabled = loans_enabled
        self.cores = [CoreScheduler(self, core) for core in cluster.cores]
        self.groups = {}             # app id -> AppGroup
        self.throttles = {}          # app id -> _CpuThrottle
        self.active_cosched = None   # at most one spatial balloon at a time
        self.log = EventTrace("smp")
        # Callbacks the psbox manager hooks: fn(app, t).
        self.balloon_in_hooks = []
        self.balloon_out_hooks = []

    def shutdown(self):
        """Drop the hooks and the kernel, core and entity back-references."""
        self.kernel = None
        self.balloon_in_hooks.clear()
        self.balloon_out_hooks.clear()
        for sched in self.cores:
            sched.smp = None
        for group in self.groups.values():
            for entity in group.entities:
                entity.group = None

    # -- groups and placement ---------------------------------------------------

    def group_for(self, app):
        if app.id not in self.groups:
            self.groups[app.id] = AppGroup(app, len(self.cores))
        return self.groups[app.id]

    def _place(self, task):
        """Choose a core for a waking task."""
        group = self.group_for(task.app)
        cosched = self.active_cosched
        if cosched is not None and cosched.group is group:
            # Prefer a balloon core that is forced-idle right now.
            for sched in self.cores:
                if sched.forced_entity is not None and sched.current_task is None:
                    return sched.core.id
        loads = [sched.waiting_count() + (1 if sched.current_task else 0)
                 for sched in self.cores]
        least = min(loads)
        best = self.cores[loads.index(least)]
        if task.core_id is not None and loads[task.core_id] == least:
            # Break ties randomly so equally loaded cores share apps fairly
            # over time (wake-balance jitter).
            rng = self.sim.rng.stream("smp.place")
            home = self.cores[task.core_id]
            return home.core.id if rng.random() < 0.5 else best.core.id
        return best.core.id

    # -- task state transitions (called by Task) -----------------------------------

    def task_ready(self, task):
        group = self.group_for(task.app)
        core_id = self._place(task)
        self._attach(task, group, core_id)
        sched = self.cores[core_id]
        entity = group.entities[core_id]
        sched.enqueue(entity, wakeup=True)
        # Preemption decision.
        if sched.current is None or (
            sched.forced_entity is None
            and entity is not sched.current
            and entity.vruntime + sched.granularity < sched.current.vruntime
        ):
            sched.resched_soon()
        elif sched.forced_entity is entity and sched.current_task is None:
            # Woken member of the ballooned app on a forced-idle core.
            sched.resched_soon()

    def _attach(self, task, group, core_id):
        old = task.core_id
        if old is not None and old != core_id:
            old_entity = group.entities[old]
            if task in old_entity.members:
                old_entity.members.remove(task)
                if not old_entity.members and not old_entity.forced:
                    self.cores[old].dequeue(old_entity)
        entity = group.entities[core_id]
        if task not in entity.members:
            entity.members.append(task)
            floor = entity.min_member_vruntime()
            task.member_vruntime = max(task.member_vruntime, floor)
        task.core_id = core_id

    def task_blocked(self, task):
        """Task went to sleep or blocked on a device."""
        self._detach(task)

    def task_exited(self, task):
        self._detach(task)

    def _detach(self, task):
        if task.core_id is None:
            return
        group = self.group_for(task.app)
        entity = group.entities[task.core_id]
        sched = self.cores[task.core_id]
        was_running = task is sched.current_task
        if was_running:
            sched.settle()
            sched.current_task = None
            # Revoke the core even if the task already left RUNNING state
            # (a crashed task is DONE by the time it reaches here but its
            # work item may still occupy the core); preempt() no-ops when
            # the core is idle.
            sched.core.preempt()
        if task in entity.members:
            entity.members.remove(task)
        if not entity.members and not entity.forced:
            sched.dequeue(entity)
        task.state = task.state if task.state in ("sleeping", "blocked", "done") \
            else "ready"
        if was_running:
            sched.resched_soon()
        self._schedule_members_check(group)

    def task_burst_done(self, task):
        """The task's compute burst completed on its core."""
        sched = self.cores[task.core_id]
        group = self.group_for(task.app)
        entity = group.entities[task.core_id]
        if task in entity.members:
            entity.members.remove(task)
        if not entity.members and not entity.forced:
            sched.dequeue(entity)
        sched.on_current_finished(task)
        self._schedule_members_check(group)

    def _schedule_members_check(self, group):
        """End the group's balloon if it turns out to have no active member.

        Deferred by one event cascade: a task that finished a burst usually
        re-readies with its next burst at the same instant, and tearing the
        balloon down just to rebuild it would churn loans and observation
        windows for nothing.
        """
        cosched = self.active_cosched
        if cosched is None or cosched.group is not group:
            return
        self.sim.call_soon(self._members_check, cosched)

    def _members_check(self, cosched):
        if self.active_cosched is not cosched:
            return
        if cosched.group.active_member_count() == 0:
            self.end_coschedule("no members")

    # -- work stealing ------------------------------------------------------------

    def core_went_idle(self, sched):
        if sched.forced_entity is not None:
            return
        # Never steal from a core with a reschedule in flight: it may be
        # about to dispatch the very task we would take, and synchronous
        # steals against deferred dispatches can ping-pong a task between
        # idle cores forever within one instant.
        victims = [
            s for s in self.cores
            if s is not sched and not s._resched_pending
        ]
        if not victims:
            return
        victim = max(victims, key=CoreScheduler.waiting_count)
        waiting = victim.waiting_tasks()
        if not waiting:
            return
        cosched = self.active_cosched
        candidates = [
            task for task in waiting
            if (cosched is None or self.group_for(task.app) is not cosched.group)
            and not self.group_for(task.app).throttled
        ]
        if not candidates:
            return
        task = min(candidates, key=lambda t: t.member_vruntime)
        group = self.group_for(task.app)
        self._attach(task, group, sched.core.id)
        entity = group.entities[sched.core.id]
        entity.vruntime = max(entity.vruntime, sched.min_vruntime)
        sched.enqueue(entity)
        sched.resched_soon()

    def offer_work(self, busy_sched):
        """A core dispatched but still has waiting tasks; wake an idle core
        so it can pull one (work conservation)."""
        for sched in self.cores:
            if (
                sched is not busy_sched
                and sched.current is None
                and sched.forced_entity is None
                and not sched._resched_pending
            ):
                sched.resched_soon()
                return

    # -- coscheduling (spatial balloons) ---------------------------------------------

    def cosched_busy(self, group):
        """True when a *different* group's balloon is active."""
        return self.active_cosched is not None and self.active_cosched.group is not group

    def balloon_admissible(self, entity):
        """May this sandboxed entity start a coscheduling period now?

        Mirrors the schedule-out rule: the entity must hold the best credit
        against every other entity machine-wide (running or waiting).  With
        loans disabled (ablation) the check degrades to the naive per-core
        rule — being picked locally suffices — which lets the sandboxed app
        free-ride through empty sibling runqueues.
        """
        if self.active_cosched is not None:
            return False
        if not self.loans_enabled:
            return True
        best = self._global_best_other(entity.group)
        if best is None:
            return True
        granularity = self.cores[entity.core_id].granularity
        return entity.vruntime <= best + granularity

    def begin_coschedule(self, group, initiator_sched):
        if self.active_cosched is not None:
            return
        now = self.sim.now
        cosched = _Coschedule(group, now)
        self.active_cosched = cosched
        self.log.add((now, _COSCHED_BEGIN, group.app.id))
        obs = self.sim.obs
        if obs is not None:
            instruments = obs.instruments[self]
            tracer = instruments.tracer
            if tracer is not None:
                cosched.span = tracer.begin(
                    "balloon.cpu", cat="balloon", track="smp",
                    app=group.app.id)
            instruments["balloons"].value += 1
            if tracer is not None and self.loans_enabled:
                # The initial scheduling loan is granted at shootdown and
                # settled by loan redistribution at schedule-out.
                tracer.instant("loan.grant", cat="loan", track="smp",
                               app=group.app.id)
        # The balloon exists from schedule-in: the observation window opens
        # now.  The few microseconds it takes remote cores to honour the IPI
        # are a (tiny, realistic) leak across the boundary.
        cosched.window_open = now
        for hook in self.balloon_in_hooks:
            hook(group.app, now)
        plan = self.sim.faults
        for sched in self.cores:
            core_id = sched.core.id
            entity = group.entities[core_id]
            entity.forced = True
            if sched is initiator_sched:
                sched.forced_entity = entity
                continue
            cosched.pending_cores.add(core_id)
            if obs is not None:
                # One span per shootdown IPI: begins when the IPI is sent,
                # ends when the remote core honours it (_ipi_arrive).  A
                # dropped IPI leaves its span open — visibly unfinished in
                # the exported trace.
                if tracer is not None:
                    cosched.ipi_spans[core_id] = tracer.begin(
                        "ipi.shootdown", cat="balloon", track="smp",
                        parent=cosched.span, core=core_id,
                    )
                instruments["ipi_sent"].value += 1
            delay = self.ipi_delay
            if plan is not None:
                if plan.drops("smp.ipi"):
                    # Shootdown lost in transit: the core stays pending (a
                    # detectable liveness violation), never switches in.
                    continue
                delay = plan.delay("smp.ipi", delay)
            self.sim.call_later(delay, self._ipi_arrive, sched, cosched)

    def _ipi_arrive(self, sched, cosched):
        """Task shootdown on a remote core (step 2 of the protocol)."""
        if self.active_cosched is not cosched:
            return
        entity = cosched.group.entities[sched.core.id]
        sched.settle()
        sched.forced_entity = entity
        sched.enqueue(entity)
        sched.reschedule()
        cosched.pending_cores.discard(sched.core.id)
        obs = self.sim.obs
        if obs is not None:
            instruments = obs.instruments[self]
            if instruments.tracer is not None:
                instruments.tracer.end(
                    cosched.ipi_spans.pop(sched.core.id, None))
            instruments["ipi_arrived"].value += 1
            instruments["shootdown_latency_ns"].observe(
                self.sim.now - cosched.started_at)

    def cosched_tick(self, group):
        """Periodic end-of-balloon check (step 4: schedule out when no
        entity holds the best credit on its core any more)."""
        cosched = self.active_cosched
        if cosched is None or cosched.group is not group:
            return
        if cosched.pending_cores:
            return
        if group.active_member_count() == 0:
            self.end_coschedule("no members")
            return
        global_best = self._global_best_other(group)
        if global_best is None:
            return  # app is alone: nobody loses by continuing
        for sched in self.cores:
            entity = group.entities[sched.core.id]
            reference = sched.best_waiting_vruntime(exclude_group=group)
            if reference is None:
                reference = global_best
            if entity.vruntime <= reference:
                return
        self.end_coschedule("credit exhausted")

    def _global_best_other(self, group):
        """Min vruntime runqueued outside ``group`` on any core."""
        best = None
        for sched in self.cores:
            for entity in sched.rq:
                if entity.group is group:
                    continue
                vruntime = entity.vruntime
                if best is None or vruntime < best:
                    best = vruntime
        return best

    def end_coschedule(self, reason):
        cosched = self.active_cosched
        if cosched is None:
            return
        group = cosched.group
        self.active_cosched = None
        now = self.sim.now
        self.log.add((now, _COSCHED_END, group.app.id, reason))
        obs = self.sim.obs
        if obs is not None:
            instruments = obs.instruments[self]
            tracer = instruments.tracer
            if tracer is not None:
                for span in cosched.ipi_spans.values():
                    # A still-open IPI span at schedule-out means the
                    # shootdown never arrived (dropped in transit).
                    tracer.end(span, dropped=True)
                cosched.ipi_spans.clear()
                tracer.end(cosched.span, reason=reason)
            instruments["balloon_ns"].observe(now - cosched.started_at)
        if cosched.window_open is not None:
            for hook in self.balloon_out_hooks:
                hook(group.app, now)

        for sched in self.cores:
            sched.settle()

        if self.loans_enabled:
            self._redistribute_loans(group, cosched)

        for sched in self.cores:
            entity = group.entities[sched.core.id]
            entity.forced = False
            sched.forced_entity = None
            if not entity.members:
                sched.dequeue(entity)
            sched.resched_soon()

    def _redistribute_loans(self, group, cosched):
        """Step 5: loan redistribution and repayment.

        Each entity's loan is the credit it borrowed to keep the core while
        a better-entitled task waited — the final vruntime gap to the best
        waiter.  The entities split the total evenly and *pay it back* with
        future credits on top of the normal billing, which is what
        disadvantages the sandboxed app in future competition.

        On machines wider than two cores, the gap alone under-prices the
        balloon: a single-threaded app reserves n cores but the per-core
        credit race only reflects one waiter's loss.  The repayment
        therefore carries a surcharge proportional to the cores the balloon
        held *idle* beyond the first — zero for a balloon the app actually
        fills, and zero on dual-core platforms, where the gap already
        covers the one idle sibling.
        """
        loans = []
        global_best = self._global_best_other(group)
        for sched in self.cores:
            entity = group.entities[sched.core.id]
            reference = sched.best_waiting_vruntime(exclude_group=group)
            if reference is None:
                reference = global_best
            if reference is None:
                loans.append(0.0)
            else:
                loans.append(max(0.0, entity.vruntime - reference))
        total = sum(loans)
        if total <= 0:
            return
        mean = total / len(loans)

        now = self.sim.now
        duration = now - cosched.started_at
        surcharge = 0.0
        if duration > 0 and len(self.cores) > 2:
            idle_ns = 0
            for trace in self.cluster.owner_traces:
                for t0, t1, owner in trace.segments(cosched.started_at, now):
                    if owner == -1.0:
                        idle_ns += t1 - t0
            idle_cores_avg = idle_ns / duration
            surcharge = max(0.0, idle_cores_avg - 1.0) * duration

        shares = []
        for sched in self.cores:
            entity = group.entities[sched.core.id]
            share = mean + surcharge / entity.weight
            entity.vruntime += share
            shares.append(share)
        self.log.add((now, _LOAN_REDISTRIBUTION, group.app.id, total,
                      surcharge, shares))
        obs = self.sim.obs
        if obs is not None:
            instruments = obs.instruments[self]
            if instruments.tracer is not None:
                instruments.tracer.instant(
                    "loan.settle", cat="loan", track="smp", app=group.app.id,
                    total=total, surcharge=surcharge)
            instruments["loan_total"].observe(total)

    # -- bandwidth throttling (powercap actuator hook) ---------------------------------

    def set_cpu_bandwidth(self, app, fraction, period=from_msec(10)):
        """Duty-cycle ``app``'s CPU access: runnable for ``fraction`` of
        every ``period``, throttled (never picked, balloons torn down) for
        the rest.  ``fraction >= 1`` removes the limit."""
        if fraction <= 0.0:
            raise ValueError("bandwidth fraction must be positive")
        if period <= 0:
            raise ValueError("bandwidth period must be positive")
        if fraction >= 1.0:
            self.clear_cpu_bandwidth(app)
            return
        throttle = self.throttles.get(app.id)
        if throttle is None:
            throttle = _CpuThrottle(fraction, int(period))
            self.throttles[app.id] = throttle
            # Start with a fresh runnable window so a newly throttled app
            # is never cut off mid-decision.
            self._throttle_on_edge(self.group_for(app), throttle)
        else:
            throttle.fraction = fraction
            throttle.period = int(period)

    def clear_cpu_bandwidth(self, app):
        """Remove ``app``'s bandwidth limit (no-op when none is set)."""
        throttle = self.throttles.pop(app.id, None)
        if throttle is None:
            return
        if throttle.event is not None:
            throttle.event.cancel()
            throttle.event = None
        group = self.group_for(app)
        if group.throttled:
            group.throttled = False
            for sched in self.cores:
                sched.resched_soon()

    def _throttle_on_edge(self, group, throttle):
        if self.throttles.get(group.app.id) is not throttle:
            return
        group.throttled = False
        throttle.event = self.sim.call_later(
            throttle.on_ns, self._throttle_off_edge, group, throttle
        )
        for sched in self.cores:
            sched.resched_soon()

    def _throttle_off_edge(self, group, throttle):
        if self.throttles.get(group.app.id) is not throttle:
            return
        group.throttled = True
        off_ns = max(1, throttle.period - throttle.on_ns)
        throttle.event = self.sim.call_later(
            off_ns, self._throttle_on_edge, group, throttle
        )
        cosched = self.active_cosched
        if cosched is not None and cosched.group is group:
            self.end_coschedule("bandwidth throttled")
        for sched in self.cores:
            sched.resched_soon()

    # -- psbox enter/leave -------------------------------------------------------------

    def set_sandboxed(self, app, sandboxed):
        group = self.group_for(app)
        group.sandboxed = sandboxed
        if not sandboxed:
            cosched = self.active_cosched
            if cosched is not None and cosched.group is group:
                self.end_coschedule("psbox left")
        else:
            # If the app is runnable right now, let the next pick start the
            # balloon promptly.
            for sched in self.cores:
                sched.resched_soon()
