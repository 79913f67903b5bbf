"""Process-global observability wiring for the experiment CLI.

The experiment drivers boot many independent simulators per figure; this
module is how one ``--trace``/``--metrics``/``--telemetry`` invocation
reaches all of them without threading a parameter through every driver.
The CLI calls :func:`configure` once; :func:`install` — called by
``repro.experiments.common.boot`` on every fresh simulator — then attaches
an :class:`~repro.obs.session.Obs` session to each run.  With nothing
configured, ``install`` is a no-op and experiments behave exactly as
before.

Telemetry adds two shared pieces: every installed session gets its own
:class:`~repro.obs.timeline.Timeline`, and one process-wide
:class:`~repro.obs.alerts.AlertEngine` watches them all — so one
``--report`` covers a whole cluster of sessions.
"""

from repro.obs import flight as flight_mod
from repro.obs.session import Obs
from repro.obs.timeline import Timeline

_config = None       # dict of configure() kwargs, or None (inactive)
_sessions = []       # Obs sessions in boot order
_alerts = None       # one AlertEngine watching every telemetry session
_label_prefix = ""
_label_counts = {}

#: ring capacity of each session's timeline series
TIMELINE_CAPACITY = 4096


def configure(tracing=False, telemetry=False, rules=None, flight=False,
              flight_dir=None):
    """Arm observability for every simulator booted from now on.

    Every session records metrics; ``tracing=True`` also records spans.
    ``telemetry=True`` attaches a :class:`Timeline` to each session and
    stands up the process-wide alert engine with ``rules`` (default:
    :func:`repro.obs.alerts.default_rules`).  ``flight=True`` additionally
    arms a process-global :class:`~repro.obs.flight.FlightRecorder` over
    all installed sessions (dumps to ``flight_dir`` when given, in-memory
    otherwise) — snapshots fire from the alert engine and the invariant
    checker.
    """
    global _config, _alerts
    _config = {"tracing": tracing, "telemetry": telemetry}
    if telemetry:
        from repro.obs.alerts import AlertEngine

        _alerts = AlertEngine(rules)
    if flight:
        flight_mod.arm(flight_mod.FlightRecorder(
            out_dir=flight_dir, sessions=sessions))


def is_active():
    return _config is not None


def set_label_prefix(prefix):
    """Label subsequent sessions ``<prefix>:<n>`` (one per experiment)."""
    global _label_prefix
    _label_prefix = prefix


def install(sim, kernel=None, label=""):
    """Attach a session to a fresh simulator; returns it (or None)."""
    if _config is None:
        return None
    if not label:
        n = _label_counts.get(_label_prefix, 0) + 1
        _label_counts[_label_prefix] = n
        label = "{}:{}".format(_label_prefix or "run", n)
    timeline = Timeline(TIMELINE_CAPACITY) if _config["telemetry"] else None
    obs = Obs(sim, label=label, tracing=_config["tracing"],
              timeline=timeline).install()
    if kernel is not None:
        obs.bind_kernel(kernel)
    _sessions.append(obs)
    if _alerts is not None:
        _alerts.watch(obs)
    return obs


def sessions():
    return list(_sessions)


def drain_sessions():
    """Hand over and forget the accumulated sessions.

    Parallel workers (``repro.par.worker``) call this after every shard so
    each shard ships exactly its own metrics home — sessions must not leak
    into the next shard's snapshot.
    """
    drained = list(_sessions)
    _sessions.clear()
    return drained


def finalize_telemetry():
    """Close out telemetry: record end-of-run facts, run ``at_end`` rules.

    Stamps each telemetry session's unfinished-span count into its
    timeline (series ``obs.unfinished_spans`` at the session's final
    virtual time), then finalizes the alert engine.  Returns the engine
    (None when telemetry was never armed).  Idempotent via the engine.
    """
    if _alerts is None:
        return None
    for obs in _sessions:
        if obs.timeline is not None:
            obs.timeline.record("obs.unfinished_spans", obs.sim.now,
                                obs.tracer.unfinished_count())
    return _alerts.finalize()


def flight_recorder():
    """The armed flight recorder (None unless ``--flight`` configured it)."""
    return flight_mod.active()


def reset():
    """Disarm and forget everything (the CLI's finally-block)."""
    global _config, _alerts, _label_prefix
    if _alerts is not None:
        _alerts.unwatch_all()
    flight_mod.disarm()
    _config = None
    _alerts = None
    _label_prefix = ""
    _sessions.clear()
    _label_counts.clear()
