"""The observability session: one tracer + one metrics registry per run.

Installing a session (``Obs(sim).install()``) publishes it as ``sim.obs``,
the single attribute every instrumentation point in the kernel, hardware,
powercap, fault, and checker layers consults.  No session installed means
every one of those points is a read-and-branch — the disabled-hook cost the
differential tests and the BENCH_obs benchmark bound.

A session is also the one place its run's readers look: the exports and
the flight recorder read its tracer, metrics, timeline, the bound
kernel's event logs and its powercap decision log through it, before
and after the boot shuts down.  No site hands them a copy.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.trace import KeptLog


class Instruments(dict):
    """One component's bound handles in one session, each made at first use.

    ``names`` is the component's ``obs_names``: key -> ``(kind, name)``
    with kind ``"counter"``, ``"gauge"`` or ``"histogram"``, or ``("series",
    name, labels)``.  ``self[key]`` creates that metric or series in the
    session the first time and returns the handle from then on (one
    dict lookup), so a metric nothing touches is never created and never
    exported.  ``tracer`` is the session's tracer if it records, else
    None: the tracer's ``enabled`` flag, latched when the component first
    binds.
    """

    def __init__(self, obs, names):
        super().__init__()
        self.obs = obs
        self.names = names
        self.tracer = obs.tracer if obs.tracer.enabled else None

    def __missing__(self, key):
        kind, name, *labels = self.names[key]
        if kind == "series":
            handle = self.obs.timeline.series(name, **labels[0])
        else:
            handle = getattr(self.obs.metrics, kind)(name)
        self[key] = handle
        return handle


class _Bindings(dict):
    """``Obs.instruments``: each component's :class:`Instruments`, keyed
    by the component, made at its first site."""

    def __init__(self, obs):
        super().__init__()
        self.obs = obs

    def __missing__(self, owner):
        instruments = self[owner] = Instruments(self.obs, owner.obs_names)
        return instruments


class Obs:
    """One run's observability context (tracing + metrics + telemetry).

    ``timeline`` is the optional virtual-time series store
    (:class:`~repro.obs.timeline.Timeline`): None unless telemetry was
    armed, so sampler sites inside the ``sim.obs`` guard pay exactly one
    extra branch when a session exists without telemetry — and a run with
    no session at all still pays only the one branch it always did.
    ``flight`` is the run's :class:`~repro.obs.flight.FlightRecorder`, or
    None; trigger sites read it inside the same guard, and the recorder
    reads the session back.

    ``instruments[component]`` is that component's :class:`Instruments`
    in this session: a hot site binds its metrics, series and latched
    tracer there once per session instead of looking a metric up by a
    name built on every event (DESIGN.md §5h).  The table belongs to the
    session, so no handle outlives it or reaches another simulator's.

    ``kernel`` is the bound kernel while its boot runs.  At
    ``Kernel.shutdown`` the session lets go of it (:meth:`release`), so
    a finished boot is freed while its run goes on; ``kernel_logs`` and
    :meth:`powercap_log` answer the same for a live boot and a
    released one.
    """

    def __init__(self, sim, label="", tracing=True, timeline=None,
                 flight=None):
        self.sim = sim
        self.label = label
        self.tracer = Tracer(sim)
        self.tracer.enabled = tracing
        self.metrics = MetricsRegistry()
        self.timeline = timeline
        self.flight = flight
        self.kernel = None
        #: the bound kernel's event logs: its EventTraces while it runs,
        #: a KeptLog of each once it has shut down
        self.kernel_logs = []
        self._kept_log = None
        self.instruments = _Bindings(self)

    def install(self):
        """Publish as ``sim.obs``; returns self."""
        self.sim.obs = self
        return self

    def bind_kernel(self, kernel):
        """Remember the kernel so snapshots can report its log health."""
        self.kernel = kernel
        self.kernel_logs = kernel.logs()
        return self

    def release(self, kernel):
        """Let go of ``kernel``'s boot, which has shut down.

        The bound instruments go, since their keys are the boot's
        components.  If ``kernel`` is the bound one, it goes too: each
        of its logs becomes a :class:`~repro.sim.trace.KeptLog` with the
        flight recorder's ``events_tail`` records (none without one), and
        the whole powercap decision log is kept.  ``kernel_logs`` is
        rewritten in place because a flight stamp holds the list: the
        stamp still matches, and pins no log.
        """
        self.instruments.clear()
        if kernel is not self.kernel:
            return
        tail = 0 if self.flight is None else self.flight.events_tail
        self.kernel_logs[:] = [KeptLog(log, tail) for log in self.kernel_logs]
        self._kept_log = self.powercap_log()
        self.kernel = None

    def powercap_log(self):
        """The decision log (an :class:`~repro.sim.trace.EventTrace`) of
        the bound kernel's powercap controller, or None."""
        controller = getattr(self.kernel, "powercap", None)
        return self._kept_log if controller is None else controller.log

    def log_stats(self):
        """Retention/drop stats of the bound kernel's event logs."""
        stats = {}
        for log in self.kernel_logs:
            stats[log.name] = {
                "retained": len(log),
                "dropped": log.dropped,
            }
        plan = getattr(self.sim, "faults", None)
        if plan is not None:
            stats[plan.log.name] = {
                "retained": len(plan.log),
                "dropped": plan.log.dropped,
            }
        return stats
