"""The flight recorder: an always-on black box that dumps on trouble.

Production power stacks keep a bounded "flight recorder" running at all
times: rings of recent events, actuator decisions, fault injections, and
the tail of every telemetry series.  Nothing is written while the run is
healthy; the moment an :class:`~repro.obs.alerts.AlertRule` fires or the
:class:`~repro.check.checker.InvariantChecker` records a violation, the
recorder snapshots everything it can see into one self-contained JSON dump
— the evidence the :mod:`repro.obs.explain` engine later turns into a
root-cause incident report, even when the live rings have long since
evicted the breach.

A recorder belongs to one observed run
(:class:`~repro.obs.runtime.ObsRun`), and every session of that run
carries it as ``obs.flight``.  Wiring follows the repo's dormant-cost
rule (DESIGN.md §5h): each trigger or source site reads ``obs.flight``
inside the ``sim.obs`` guard it already pays, so an unobserved simulator
pays nothing extra and a session without a recorder pays one branch.  The
sites are:

* ``AlertEngine._fire`` — every fired alert triggers a snapshot;
* ``InvariantChecker._flag`` — every recorded violation triggers one;
* the powercap daemon tick and the cluster epoch sampler — these never
  trigger dumps, they only *register* their decision rings (the
  :class:`~repro.powercap.telemetry.TelemetryRing` of actuator actions)
  so snapshots can include them.

Everything the recorder does is read-only with respect to the simulation:
it draws no RNG, schedules no events, and only ever reads rings that
already exist — so flight-recorder-on runs stay sha256 bit-identical to
bare ones (asserted by the differential matrix's ``flight-on`` column).
"""

import json
import os
from itertools import islice

FORMAT = "psbox-flight"
VERSION = 1


#: exact types ``_jsonable`` returns unchanged; members of one of these
#: types are kept without a call (a subclass, such as a numpy float, still
#: makes the call)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _jsonable(value):
    """``value`` reduced to JSON-safe primitives, deterministically.

    Unknown objects become their type name (never ``repr`` — memory
    addresses would make dumps differ run to run).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _SCALARS else _jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): v if type(v) in _SCALARS else _jsonable(v)
                for k, v in value.items()}
    return "<{}>".format(type(value).__name__)


def _tail(ring, n):
    """An iterator over the last ``n`` items of a sized iterable, oldest
    first.

    Nothing is copied: ``islice`` steps over the head in C, and the
    caller converts each tail item as it reads it.
    """
    return islice(ring, max(len(ring) - n, 0), None)


def _stamp(obs):
    """What must stay equal for ``obs``'s last session snapshot to hold.

    The identity and counts of everything
    :meth:`FlightRecorder._session_snapshot` reads.  Series, the tracer's
    instants and every log only append, and every append grows ``len``
    or ``dropped``, so equal counts on the same objects mean equal
    content.  The kernel's part is the session's ``kernel_logs`` list,
    which one bound kernel keeps from bind to release (in place), never
    the kernel itself: a stamp must not keep a finished boot alive.
    """
    timeline = getattr(obs, "timeline", None)
    tracer = getattr(obs, "tracer", None)
    logs = obs.kernel_logs
    plan = getattr(obs.sim, "faults", None)
    return (
        obs.label, obs.sim.now, timeline, logs, plan,
        None if timeline is None else [
            (len(series), series.dropped, series.disordered)
            for series in timeline.all()],
        None if tracer is None else len(tracer.instants),
        [(len(log), log.dropped) for log in logs],
        None if plan is None else (len(plan.log), plan.log.dropped),
    )


def _dump_text(dump, session_texts):
    """``json.dumps(dump, sort_keys=True)``, with each session's text given.

    JSON text composes: a member's text inside the document equals the
    member's own ``json.dumps`` with the same settings.
    """
    members = []
    for key in sorted(dump):
        if key == "sessions":
            value = "[{}]".format(", ".join(session_texts))
        else:
            value = json.dumps(dump[key], sort_keys=True)
        members.append("{}: {}".format(json.dumps(key), value))
    return "{{{}}}".format(", ".join(members))


class FlightRecorder:
    """Bounded black-box capture with snapshot-on-trigger semantics.

    ``sessions`` is the list of :class:`~repro.obs.session.Obs` sessions
    to snapshot (a fresh empty one by default), read live at every
    snapshot: an :class:`~repro.obs.runtime.ObsRun` passes its own list,
    so late-booted simulators are covered.  ``out_dir`` of None keeps
    every dump dict in ``dumps``, its only output (tests, the
    differential matrix); a path writes each dump to a
    ``flight-NNN.json`` file as it is taken, keeps only the file's path
    in ``paths``, and writes a ``manifest.json`` on :meth:`flush`.
    Either way ``triggers`` keeps each dump's trigger, and
    :meth:`snapshot` returns the dump it took.

    A session unchanged since the previous dump is not copied again: its
    snapshot dict, and the JSON text written for it, are reused until its
    stamp (:func:`_stamp`) moves.  So consecutive dumps share the dicts
    of unchanged sessions, and every dump is read-only.  Only each
    session's newest snapshot is kept for that.
    """

    def __init__(self, out_dir=None, sessions=None, series_tail=256,
                 events_tail=256, max_dumps=16):
        if series_tail < 1 or events_tail < 1:
            raise ValueError("flight tails must be >= 1")
        if max_dumps < 1:
            raise ValueError("max_dumps must be >= 1")
        self.out_dir = out_dir
        self.series_tail = series_tail
        self.events_tail = events_tail
        self.max_dumps = max_dumps
        self.dumps = []          # snapshot dicts, trigger order (no out_dir)
        self.paths = []          # files written, trigger order (out_dir)
        self.triggers = []       # each dump's trigger, trigger order
        self.suppressed = 0      # triggers past max_dumps
        self.sessions = [] if sessions is None else sessions
        self._rings = {}         # id -> (label, TelemetryRing); insertion order
        self._cache = {}         # session -> (stamp, snapshot, its JSON text)
        self._alerts = []        # every alert seen, dump order context

    # -- source registration (the "note" sites) -------------------------------

    def note_ring(self, ring, label):
        """Register one actuator-decision ring under a session label.

        Idempotent per ring object; called from the powercap tick (and,
        for every node, from the cluster epoch sampler), so the ring is
        known to the recorder before any trigger can fire.
        """
        key = id(ring)
        if key not in self._rings:
            self._rings[key] = (label, ring)

    def note_cluster(self, nodes):
        """Register every cluster node's controller ring (epoch sampler)."""
        for node in nodes:
            controller = getattr(node, "controller", None)
            if controller is None:
                continue
            obs = getattr(node.platform.sim, "obs", None)
            label = obs.label if obs is not None and obs.label else node.name
            self.note_ring(controller.telemetry, label)

    # -- triggers -------------------------------------------------------------

    def on_alert(self, alert, obs=None, engine=None):
        """An :class:`~repro.obs.alerts.Alert` fired: snapshot."""
        self._alerts.append(alert.to_dict())
        self.snapshot(dict(alert.to_dict(), type="alert"))

    def on_violation(self, violation, sim=None):
        """The invariant checker flagged ``violation``: snapshot."""
        self.snapshot({
            "type": "violation",
            "t_ns": violation.t,
            "invariant": violation.invariant,
            "component": violation.component,
            "event": violation.event,
            "message": violation.message,
        })

    # -- the snapshot itself --------------------------------------------------

    def snapshot(self, trigger):
        """Capture one self-contained dump; returns it (or None if capped).

        Read-only against the simulation: every ring it copies already
        exists, and nothing here draws RNG or schedules events.
        """
        if len(self.triggers) >= self.max_dumps:
            self.suppressed += 1
            return None
        entries = [self._session(obs) for obs in self.sessions]
        dump = {
            "format": FORMAT,
            "version": VERSION,
            "seq": len(self.triggers),
            "trigger": _jsonable(trigger),
            "sessions": [snap for _stamp, snap, _text in entries],
            "actions": self._actions_snapshot(),
            "alerts": list(self._alerts),
            "suppressed": self.suppressed,
        }
        self.triggers.append(dump["trigger"])
        if self.out_dir is None:
            self.dumps.append(dump)
        else:
            self._write(dump, [text for _stamp, _snap, text in entries])
        return dump

    def _session(self, obs):
        """``(stamp, snapshot, text)`` for ``obs``, rebuilt when stamp moved.

        Keyed by the session object itself, not its ``id()``, which a
        later session could reuse once this one is dropped.
        """
        stamp = _stamp(obs)
        entry = self._cache.get(obs)
        if entry is None or entry[0] != stamp:
            snap = self._session_snapshot(obs)
            entry = self._cache[obs] = (
                stamp, snap, json.dumps(snap, sort_keys=True))
        return entry

    def _session_snapshot(self, obs):
        snap = {
            "label": obs.label,
            "now_ns": obs.sim.now,
            "series": [],
            "instants": [],
            "logs": {},
            "injections": [],
        }
        timeline = getattr(obs, "timeline", None)
        # each point, instant and log record is converted in one pass:
        # a series point (t, v) becomes [t, v], and a payload or args
        # dict is _jsonable's dict branch, inlined
        if timeline is not None:
            for series in timeline.all():
                snap["series"].append({
                    "name": series.name,
                    "labels": dict(series.labels),
                    "dropped": series.dropped,
                    "disordered": series.disordered,
                    "points": list(map(list, _tail(series,
                                                   self.series_tail))),
                })
        tracer = getattr(obs, "tracer", None)
        if tracer is not None:
            snap["instants"] = [
                [t, track, name, cat,
                 {str(k): v if type(v) in _SCALARS else _jsonable(v)
                  for k, v in args.items()}]
                for t, track, name, cat, args
                in tracer.instants[-self.events_tail:]
            ]
        # the kernel's event logs (unbounded EventTraces; only an
        # EventTrace(capacity=N) is a ring): the "recent dispatched events"
        # black box — scheduling decisions, drains, governor switches.
        # A shut-down boot's session keeps each log's last records, as
        # many as this tail reads.
        for log in obs.kernel_logs:
            # "seq" labels come from process-global counters (see
            # repro.faults.diff) — strip them so dumps from the same
            # seed are byte-identical run to run
            snap["logs"][log.name] = {
                "retained": len(log),
                "dropped": log.dropped,
                "tail": [
                    [t, kind,
                     {str(k): v if type(v) in _SCALARS else _jsonable(v)
                      for k, v in payload.items() if k != "seq"}]
                    for t, kind, payload
                    in _tail(log.records, self.events_tail)],
            }
        plan = getattr(obs.sim, "faults", None)
        if plan is not None:
            snap["injections"] = [
                dict(_jsonable(payload), t_ns=t)
                for t, kind, payload in _tail(plan.log, self.events_tail)
                if kind == "inject"
            ]
        return snap

    def _actions_snapshot(self):
        """Actuator decisions from every noted controller ring, tails."""
        out = []
        for label, ring in self._rings.values():
            for entry in _tail(ring, self.events_tail):
                action = {str(k): v if type(v) in _SCALARS else _jsonable(v)
                          for k, v in entry.items()}
                action["session"] = label
                out.append(action)
        return out

    def _write(self, dump, session_texts):
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir,
                            "flight-{:03d}.json".format(dump["seq"]))
        # one compact line: ``indent=`` (like any ``json.dump`` to a
        # handle) runs json's pure-Python encoder, several times slower
        # than the C encoder ``json.dumps`` runs
        with open(path, "w") as handle:
            handle.write(_dump_text(dump, session_texts))
            handle.write("\n")
        self.paths.append(path)
        return path

    def flush(self):
        """Write the manifest (out_dir set); returns the dump count."""
        if self.out_dir is not None and (self.paths or self.suppressed):
            os.makedirs(self.out_dir, exist_ok=True)
            manifest = {
                "format": FORMAT,
                "version": VERSION,
                "dumps": [os.path.basename(p) for p in self.paths],
                "suppressed": self.suppressed,
                "triggers": self.triggers,
            }
            path = os.path.join(self.out_dir, "manifest.json")
            with open(path, "w") as handle:
                json.dump(manifest, handle, indent=1, sort_keys=True)
                handle.write("\n")
        return len(self.triggers)
