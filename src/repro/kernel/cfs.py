"""Per-core CFS-like scheduling: runqueues, group entities, vruntime billing.

Mirrors the Linux structure the paper builds on: each core runs its own
scheduler instance over *group entities* (one per app per core, like a
cgroup's per-cpu entity).  psbox coscheduling (``repro.kernel.smp``) forces a
core onto a designated group entity and keeps billing it even while the core
idles — that is how lost sharing opportunities get charged to the sandboxed
app.
"""

from repro.sim.clock import from_msec


class GroupEntity:
    """An app's schedulable presence on one core.

    Holds the member tasks currently assigned to this core and a collective
    vruntime.  ``forced`` marks the entity as pinned by an active spatial
    balloon: it stays schedulable (and billable) even with no runnable
    member.
    """

    def __init__(self, group, core_id):
        self.group = group
        self.core_id = core_id
        self.vruntime = 0.0
        self.members = []        # tasks READY or RUNNING assigned here
        self.on_rq = False
        self.forced = False

    @property
    def weight(self):
        return self.group.weight

    @property
    def runnable(self):
        return bool(self.members)

    def pick_member(self):
        """The READY member with the smallest member vruntime, or None."""
        best = None
        for task in self.members:
            if task.runnable and (
                best is None or task.member_vruntime < best.member_vruntime
            ):
                best = task
        return best

    def min_member_vruntime(self):
        if not self.members:
            return 0.0
        return min(task.member_vruntime for task in self.members)

    def __repr__(self):
        return "GroupEntity({}, core{}, vr={:.3f}ms)".format(
            self.group.app.name, self.core_id, self.vruntime / 1e6
        )


class CoreScheduler:
    """One scheduler instance: a runqueue of group entities on one core."""

    #: the metrics a session binds (``obs.instruments[self]``)
    obs_names = {"dispatches": ("counter", "cfs.dispatches")}

    def __init__(self, smp, core, tick_period=from_msec(1),
                 granularity=from_msec(1.5), wakeup_grace=from_msec(2)):
        self.smp = smp
        self.sim = smp.sim
        self.core = core
        self.tick_period = tick_period
        self.granularity = granularity
        self.wakeup_grace = wakeup_grace

        self.rq = []                  # entities with on_rq == True
        self.min_vruntime = 0.0
        self.current = None           # the entity occupying the core
        self.current_task = None      # its running member (None = forced idle)
        self.current_since = None
        self.forced_entity = None     # set by an active spatial balloon
        self._tick_event = None
        self._resched_pending = False

    # -- runqueue maintenance -------------------------------------------------

    def enqueue(self, entity, wakeup=False):
        if entity.on_rq:
            return
        if wakeup:
            entity.vruntime = max(
                entity.vruntime, self.min_vruntime - self.wakeup_grace
            )
        entity.on_rq = True
        self.rq.append(entity)

    def dequeue(self, entity):
        if not entity.on_rq:
            return
        entity.on_rq = False
        self.rq.remove(entity)

    # -- billing ----------------------------------------------------------------

    def settle(self):
        """Bill CPU time since the last settle to the occupying entity.

        A forced (ballooned) entity is billed even while the core idles:
        the kernel "does not differentiate the portion used by the app from
        the portion intentionally kept idle by the balloons" (§4.1).
        """
        now = self.sim.now
        current = self.current
        if current is not None and self.current_since is not None:
            delta = now - self.current_since
            if delta > 0:
                current.vruntime += delta / current.weight
                task = self.current_task
                if task is not None:
                    task.member_vruntime += delta / task.weight
        self.current_since = now
        # min_vruntime = max(old, min(runqueue then current)), written as
        # comparisons that keep the earlier value on ties, like min/max.
        lowest = None
        for entity in self.rq:
            vruntime = entity.vruntime
            if lowest is None or vruntime < lowest:
                lowest = vruntime
        if current is not None and (lowest is None
                                    or current.vruntime < lowest):
            lowest = current.vruntime
        if lowest is not None and lowest > self.min_vruntime:
            self.min_vruntime = lowest

    # -- picking ----------------------------------------------------------------

    def pick_next(self):
        """Choose the next entity: balloon override, else min vruntime."""
        if self.forced_entity is not None:
            return self.forced_entity
        best = None
        for entity in self.rq:
            group = entity.group
            if group.throttled:
                # A bandwidth throttle's off-phase: the app keeps its
                # runqueue position but is never picked (powercap actuator).
                continue
            if group.sandboxed and not self.smp.balloon_admissible(entity):
                # Sandboxed apps only ever run inside their balloon, and a
                # balloon preempts every core — so it must be justified by
                # the app's credit against the whole machine, not just this
                # runqueue (which may simply be empty).
                continue
            if best is None or entity.vruntime < best.vruntime:
                best = entity
        return best

    def best_waiting_vruntime(self, exclude_group):
        """Min vruntime among runqueued entities outside ``exclude_group``."""
        best = None
        for entity in self.rq:
            if entity.group is exclude_group:
                continue
            if best is None or entity.vruntime < best:
                best = entity.vruntime
        return best

    # -- the dispatch path ---------------------------------------------------------

    def resched_soon(self):
        """Coalesce reschedule requests within one event cascade."""
        if self._resched_pending:
            return
        self._resched_pending = True
        self.sim.call_soon(self._resched_run)

    def _resched_run(self):
        self._resched_pending = False
        self.reschedule()

    def reschedule(self):
        """Stop the current task, pick the best entity, dispatch it."""
        self.settle()
        candidate = self.pick_next()

        if (
            candidate is not None
            and candidate.group.sandboxed
            and self.forced_entity is None
            and not self.smp.cosched_busy(candidate.group)
        ):
            # Picking a sandboxed app starts a coscheduling period; the smp
            # layer forces this core (and IPIs the others), then we dispatch.
            self.smp.begin_coschedule(candidate.group, self)
            candidate = self.pick_next()

        self._stop_current_task()

        if candidate is None:
            self.current = None
            self._cancel_tick()
            self.smp.core_went_idle(self)
            return

        self.current = candidate
        task = candidate.pick_member()
        if task is not None:
            self.current_task = task
            task.state = "running"
            obs = self.sim.obs
            if obs is not None:
                obs.instruments[self]["dispatches"].value += 1
            self.core.start(candidate.group.app.id, task.work)
        self.current_since = self.sim.now
        self._arm_tick()
        if self.waiting_count():
            self.smp.offer_work(self)

    def _stop_current_task(self):
        if self.current_task is not None:
            task = self.current_task
            self.current_task = None
            if task.running:
                self.core.preempt()
                task.state = "ready"
        self.current = None

    def on_current_finished(self, task):
        """The running member's burst completed (hardware already idle)."""
        if task is not self.current_task:
            return
        self.settle()
        self.current_task = None
        self.resched_soon()

    # -- the periodic tick -----------------------------------------------------------

    def _arm_tick(self):
        if self._tick_event is None:
            self._tick_event = self.sim.call_later(self.tick_period, self._tick)

    def _cancel_tick(self):
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def _tick(self):
        self._tick_event = None
        self.settle()
        if self.forced_entity is not None:
            self.smp.cosched_tick(self.forced_entity.group)
            if self.forced_entity is not None:
                # Balloon still active: maybe rotate to another READY member.
                self._maybe_rotate_member()
                self._arm_tick()
            return
        current = self.current
        if current is None:
            return
        best = None
        for entity in self.rq:
            if entity is current or entity.group.throttled:
                continue
            vruntime = entity.vruntime
            if best is None or vruntime < best:
                best = vruntime
        if best is not None and best + self.granularity < current.vruntime:
            self.reschedule()
        else:
            self._maybe_rotate_member()
            self._arm_tick()

    def _maybe_rotate_member(self):
        """Fair rotation among an entity's own members at tick granularity."""
        entity = self.current
        if entity is None or self.current_task is None:
            if entity is not None and self.current_task is None:
                # Forced-idle core: a member may have become READY meanwhile.
                task = entity.pick_member()
                if task is not None:
                    self.current_task = task
                    task.state = "running"
                    self.core.start(entity.group.app.id, task.work)
            return
        best = entity.pick_member()
        if (
            best is not None
            and best is not self.current_task
            and best.member_vruntime + self.granularity
            < self.current_task.member_vruntime
        ):
            task = self.current_task
            self.current_task = None
            if task.running:
                self.core.preempt()
                task.state = "ready"
            self.current_task = best
            best.state = "running"
            self.core.start(entity.group.app.id, best.work)

    # -- waiting-task census (for work stealing) ------------------------------------

    def waiting_tasks(self):
        """READY tasks queued here but not running."""
        waiting = []
        for entity in self.rq:
            for task in entity.members:
                if task.runnable and task is not self.current_task:
                    waiting.append(task)
        return waiting

    def waiting_count(self):
        """``len(waiting_tasks())`` without building the list."""
        count = 0
        current_task = self.current_task
        for entity in self.rq:
            for task in entity.members:
                if task.runnable and task is not current_task:
                    count += 1
        return count
