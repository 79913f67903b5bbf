"""Observability wiring for the experiment CLI: one :class:`ObsRun` per run.

The experiment drivers boot many independent simulators per figure; this
module is how one ``--trace``/``--metrics``/``--telemetry`` invocation
reaches all of them without threading a parameter through every driver.
The CLI builds one :class:`ObsRun` and runs its subcommands inside
``with observe(run):``; :func:`install` — called by
``repro.experiments.common.boot`` on every fresh simulator — then attaches
an :class:`~repro.obs.session.Obs` session to each of them, owned by that
run.  Outside any ``observe`` block ``install`` is a no-op and experiments
behave exactly as before.

Everything a run collects lives on the run: its sessions, its one alert
engine, its flight recorder and its label counts.  :data:`current` is the
only module-level state, and only :func:`observe` assigns it, restoring
the outer run when the block exits — so nothing outlives its run, and two
observed runs can share a process (a parallel worker runs each cell in a
fresh one and ships its metrics home, into the parent run's
``registries``).
"""

import gc
from contextlib import contextmanager

from repro.obs.alerts import AlertEngine
from repro.obs.flight import FlightRecorder
from repro.obs.session import Obs
from repro.obs.timeline import Timeline

#: ring capacity of each session's timeline series
TIMELINE_CAPACITY = 4096

#: the run :func:`install` attaches sessions to; None outside ``observe``
current = None


class ObsRun:
    """One observed invocation: its sessions, alert engine and recorder.

    Every session records metrics; ``tracing=True`` also records spans.
    ``telemetry=True`` attaches a :class:`Timeline` to each session and
    stands up one :class:`~repro.obs.alerts.AlertEngine` with ``rules``
    (default: :func:`repro.obs.alerts.default_rules`) watching them all,
    so one ``--report`` covers a whole cluster of sessions.
    ``flight_dir`` adds a :class:`~repro.obs.flight.FlightRecorder` over
    the run's sessions that dumps there; each session carries it as
    ``obs.flight``, where the alert engine and the invariant checker
    trigger it.

    ``registries`` is what the merged metrics fold, in run order: each
    session's registry from its install, and the registries of each cell
    that ran in a pool worker, which the parallel runner appends where
    the cell's inline sessions would have been.  A pool cell's sessions
    stay in the worker, so ``sessions`` lists in-process sessions only.
    """

    def __init__(self, tracing=False, telemetry=False, rules=None,
                 flight_dir=None):
        self.tracing = tracing
        self.telemetry = telemetry
        self.sessions = []       # Obs sessions in boot order
        self.registries = []     # metrics registries in run order
        self.alerts = AlertEngine(rules) if telemetry else None
        self.flight = (FlightRecorder(flight_dir, sessions=self.sessions)
                       if flight_dir is not None else None)
        #: sessions installed without a label are named ``<prefix>:<n>``
        self.label_prefix = ""
        self._label_counts = {}

    def install(self, sim, kernel=None, label=""):
        """Attach a session to a fresh simulator; returns it."""
        if not label:
            n = self._label_counts.get(self.label_prefix, 0) + 1
            self._label_counts[self.label_prefix] = n
            label = "{}:{}".format(self.label_prefix or "run", n)
        timeline = Timeline(TIMELINE_CAPACITY) if self.telemetry else None
        obs = Obs(sim, label=label, tracing=self.tracing, timeline=timeline,
                  flight=self.flight).install()
        if kernel is not None:
            obs.bind_kernel(kernel)
        self.sessions.append(obs)
        self.registries.append(obs.metrics)
        if self.alerts is not None:
            self.alerts.watch(obs)
        return obs

    def finalize(self):
        """Close out telemetry: record end-of-run facts, run ``at_end`` rules.

        Stamps each telemetry session's unfinished-span count into its
        timeline (series ``obs.unfinished_spans`` at the session's final
        virtual time), then finalizes the alert engine.  Returns the
        engine (None without telemetry).  Idempotent: once the engine is
        finalized, later calls stamp nothing and return it as it is.
        """
        if self.alerts is None or self.alerts.finalized:
            return self.alerts
        for obs in self.sessions:
            if obs.timeline is not None:
                obs.timeline.record("obs.unfinished_spans", obs.sim.now,
                                    obs.tracer.unfinished_count())
        return self.alerts.finalize()


@contextmanager
def observe(run):
    """Make ``run`` (an :class:`ObsRun`, or None) current for the block.

    The outer run is current again when the block exits or raises.

    While a run is current, cyclic GC's full (generation 2) collections
    are deferred: threshold 2 goes to 2**31 - 1, the largest value
    ``gc.set_threshold`` accepts.  The run's sessions keep every
    recorded span, instant, sample, series point and metric, and each
    shut-down boot's log counts and tails, alive until it ends; the
    boots themselves they let go (``Obs.release``), and reference
    counting frees them.  So a full collection could only rescan
    records that must stay.  Young collections keep running; they are
    cheap and find little, since a completed unit is no longer a
    cycle.  The thresholds saved at entry come back on exit or raise,
    so nested blocks defer until the outermost one ends, and unobserved
    code keeps CPython's default policy (there, each owner shuts its
    finished boot down with ``Kernel.shutdown``, and reference counting
    frees it).  Nothing reads the collector, so no output depends on
    when it runs.
    """
    global current
    outer, current = current, run
    thresholds = gc.get_threshold()
    if run is not None:
        gc.set_threshold(thresholds[0], thresholds[1], 2**31 - 1)
    try:
        yield run
    finally:
        current = outer
        gc.set_threshold(*thresholds)


def install(sim, kernel=None, label=""):
    """Attach a session of the current run to ``sim``; None outside a run."""
    if current is None:
        return None
    return current.install(sim, kernel=kernel, label=label)
