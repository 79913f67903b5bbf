"""The App abstraction: one or a group of user processes (paper's terms)."""

from repro.sim.trace import EventTrace

# record shapes of an app's ``<name>.metrics`` log
_TASK_DONE = ("task_done", "task")
_COUNT = ("count", "metric", "n")


class App:
    """One application: identity, tasks, metrics, and optional psboxes.

    Ids are kernel-scoped so that runs with the same seed are bitwise
    reproducible regardless of what else ran in the process.
    """

    def __init__(self, kernel, name, weight=1.0):
        self.kernel = kernel
        self.id = kernel.next_app_id()
        self.name = name
        self.weight = float(weight)
        self.tasks = []
        self.psboxes = []
        self.counters = {}
        self.events = EventTrace(name + ".metrics")
        self.started_at = kernel.now
        kernel.register_app(self)

    # -- tasks ------------------------------------------------------------------

    def spawn(self, behavior, name="", weight=1.0):
        """Start one task of this app running ``behavior`` (a generator)."""
        return self.kernel.spawn(self, behavior, name=name, weight=weight)

    def task_finished(self, task):
        self.events.add((self.kernel.now, _TASK_DONE, task.name))

    @property
    def finished(self):
        """True when every spawned task has run to completion."""
        return bool(self.tasks) and all(not t.alive for t in self.tasks)

    @property
    def finished_at(self):
        """Completion time of the last task (None while any is alive)."""
        if not self.finished:
            return None
        return max(t.finished_at for t in self.tasks)

    # -- metrics ------------------------------------------------------------------

    def count(self, metric, n=1):
        """Record ``n`` units of app-defined progress (items, frames, KB...)."""
        self.counters[metric] = self.counters.get(metric, 0) + n
        self.events.add((self.kernel.now, _COUNT, metric, n))

    def note_command_complete(self, device, command):
        self.count(device + "_commands", 1)
        self.count(device + "_cycles", command.cycles)

    def note_packet_complete(self, packet):
        self.count("tx_bytes", packet.size_bytes)

    def rate(self, metric, t0, t1):
        """Units of ``metric`` per second over [t0, t1)."""
        if t1 <= t0:
            return 0.0
        total = sum(
            payload["n"]
            for _t, _k, payload in self.events.filter(
                kind="count", t0=t0, t1=t1, metric=metric
            )
        )
        return total * 1e9 / (t1 - t0)

    # -- psbox ---------------------------------------------------------------------

    def create_psbox(self, components):
        """psbox_create(): bind a new power sandbox to hardware components."""
        from repro.core.psbox import PowerSandbox

        return PowerSandbox(self.kernel, self, components=components)

    def __repr__(self):
        return "App({!r}, id={})".format(self.name, self.id)
