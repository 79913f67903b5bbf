"""Active injectors: faults that need their own timeline.

Most sites are passive — a component asks the plan at a decision point it
was reaching anyway.  Task crashes have no such point: nothing in the
kernel "attempts" to crash, so a driver must schedule the attempts.  The
:class:`TaskCrashInjector` draws crash times from the plan's own RNG stream
and is completely inert (schedules nothing) unless the plan arms a
``task.crash`` spec, preserving the bit-identical-off-by-default promise.
"""

# the shape of a crash's record in the plan's log
_CRASH = ("inject", "site", "fault", "task", "restart_ns")


class TaskCrashInjector:
    """Crashes random alive tasks of the target apps, then respawns them.

    ``targets`` is a list of ``(app, behavior_factory)`` pairs; after a
    crash the app gets a fresh task running ``behavior_factory()`` once the
    spec's restart delay (``extra_ns`` + ``jitter_ns``) elapses.  Attempt
    times are spaced exponentially with mean ``interval_ns``.
    """

    SITE = "task.crash"

    def __init__(self, kernel, targets):
        self.kernel = kernel
        self.sim = kernel.sim
        self.targets = list(targets)
        self.crashes = 0

    def start(self):
        """Arm the injector; a no-op without an enabled crash spec."""
        plan = self.sim.faults
        if plan is None or not plan.enabled or not self.targets:
            return self
        spec = plan.spec(self.SITE, "crash")
        if spec is None or spec.interval_ns <= 0:
            return self
        self._arm_next(plan, spec)
        return self

    def _arm_next(self, plan, spec):
        if spec.limit is not None and spec.count >= spec.limit:
            return
        gap = max(1, int(plan.rng(self.SITE).exponential(spec.interval_ns)))
        self.sim.call_later(gap, self._attempt)

    def _attempt(self):
        plan = self.sim.faults
        if plan is None or not plan.enabled:
            return
        spec = plan.spec(self.SITE, "crash")
        if spec is None:
            return
        fired = plan.fires(self.SITE, "crash")
        if fired is not None:
            self._crash_one(plan, fired)
        self._arm_next(plan, spec)

    def _crash_one(self, plan, spec):
        rng = plan.rng(self.SITE)
        app, factory = self.targets[int(rng.integers(len(self.targets)))]
        victims = [task for task in app.tasks if task.alive]
        if not victims:
            return
        victim = victims[int(rng.integers(len(victims)))]
        victim.crash()
        self.crashes += 1
        restart = spec.extra_ns
        if spec.jitter_ns > 0:
            restart += int(rng.integers(0, spec.jitter_ns))
        plan.log.add((self.sim.now, _CRASH, self.SITE, "crash", victim.name,
                      restart))
        self.sim.call_later(max(1, restart), self._respawn, app, factory)

    def _respawn(self, app, factory):
        app.spawn(factory())
