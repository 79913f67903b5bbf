"""The flight recorder: an always-on black box that dumps on trouble.

Production power stacks keep a bounded "flight recorder" running at all
times: rings of recent events, actuator decisions, fault injections, and
the tail of every telemetry series.  Nothing is written while the run is
healthy; the moment an :class:`~repro.obs.alerts.AlertRule` fires or the
:class:`~repro.check.checker.InvariantChecker` records a violation, the
recorder writes everything it can see into one self-contained JSON dump
— the evidence the :mod:`repro.obs.explain` engine later turns into a
root-cause incident report, even when the live rings have long since
evicted the breach.

A recorder belongs to one observed run
(:class:`~repro.obs.runtime.ObsRun`), and every session of that run
carries it as ``obs.flight``.  Wiring follows the repo's dormant-cost
rule (DESIGN.md §5h): each trigger site reads ``obs.flight`` inside the
``sim.obs`` guard it already pays, so an unobserved simulator pays
nothing extra and a session without a recorder pays one branch.  The
sites are:

* ``AlertEngine._fire`` — every fired alert triggers a snapshot;
* ``InvariantChecker._flag`` — every recorded violation triggers one.

Nothing else touches it.  Its sources are the run's sessions and what
each already keeps: series, the tracer's instants, the kernel's event
logs, the fault log, and the powercap decision ring
(:meth:`~repro.obs.session.Obs.powercap_ring`, the
:class:`~repro.powercap.telemetry.TelemetryRing` of actuator actions),
live or kept past ``Kernel.shutdown``.

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
    instants and every log only append: an append grows a log's ``len``,
    and a series' ``len`` or, once its ring is full, ``dropped``.  So
    equal counts on the same objects mean equal content.  The kernel's
    part is the session's ``kernel_logs`` list, which one bound kernel
    keeps from bind to release (in place), never the kernel itself: a
    stamp must not keep a finished boot alive.
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
        None if tracer is None else len(tracer.instant_t),
        [len(log) for log in logs],
        None if plan is None else len(plan.log),
    )


def _dump_text(dump):
    """``json.dumps(dump, sort_keys=True)``, where ``dump["sessions"]``
    holds each session's text, not its dict.

    JSON text composes: a member's text inside the document equals the
    member's own ``json.dumps`` with the same settings.
    """
    members = []
    for key in sorted(dump):
        if key == "sessions":
            value = "[{}]".format(", ".join(dump[key]))
        else:
            value = json.dumps(dump[key], sort_keys=True)
        members.append("{}: {}".format(json.dumps(key), value))
    return "{{{}}}".format(", ".join(members))


class FlightRecorder:
    """Bounded black-box capture with snapshot-on-trigger semantics.

    Each dump is written to a ``flight-NNN.json`` file under ``out_dir``
    as it is taken; ``paths`` keeps each file's path and ``triggers``
    each dump's trigger, and :meth:`flush` writes a ``manifest.json``.
    ``sessions`` is the list of :class:`~repro.obs.session.Obs` sessions
    to snapshot (a fresh empty one by default), read live at every
    snapshot: an :class:`~repro.obs.runtime.ObsRun` passes its own list,
    so late-booted simulators are covered.

    A session unchanged since the previous dump is not encoded again:
    the JSON text written for it is reused until its stamp
    (:func:`_stamp`) moves.  That text, each session's newest, is all
    the recorder keeps of a session.
    """

    def __init__(self, out_dir, sessions=None, series_tail=256,
                 events_tail=256, max_dumps=16):
        if series_tail < 1 or events_tail < 1:
            raise ValueError("flight tails must be >= 1")
        if max_dumps < 1:
            raise ValueError("max_dumps must be >= 1")
        self.out_dir = out_dir
        self.series_tail = series_tail
        self.events_tail = events_tail
        self.max_dumps = max_dumps
        self.paths = []          # files written, trigger order
        self.triggers = []       # each dump's trigger, trigger order
        self.suppressed = 0      # triggers past max_dumps
        self.sessions = [] if sessions is None else sessions
        self._cache = {}         # session -> (stamp, its snapshot's JSON text)
        self._alerts = []        # every alert seen, dump order context

    # -- triggers -------------------------------------------------------------

    def on_alert(self, alert):
        """An :class:`~repro.obs.alerts.Alert` fired: snapshot."""
        self._alerts.append(alert.to_dict())
        self.snapshot(dict(alert.to_dict(), type="alert"))

    def on_violation(self, violation):
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
        """Write one self-contained dump; returns its path (None if capped).

        Read-only against the simulation: every ring it copies already
        exists, and nothing here draws RNG or schedules events.
        """
        if len(self.triggers) >= self.max_dumps:
            self.suppressed += 1
            return None
        trigger = _jsonable(trigger)
        dump = {
            "format": FORMAT,
            "version": VERSION,
            "seq": len(self.triggers),
            "trigger": trigger,
            "sessions": [self._session_text(obs) for obs in self.sessions],
            "actions": self._actions_snapshot(),
            "alerts": self._alerts,
            "suppressed": self.suppressed,
        }
        self.triggers.append(trigger)
        return self._write(dump)

    def _session_text(self, obs):
        """``obs``'s snapshot as JSON text, re-encoded when its stamp moved.

        Keyed by the session object itself, not its ``id()``, which a
        later session could reuse once this one is dropped.
        """
        stamp = _stamp(obs)
        entry = self._cache.get(obs)
        if entry is None or entry[0] != stamp:
            entry = self._cache[obs] = (stamp, json.dumps(
                self._session_snapshot(obs), sort_keys=True))
        return entry[1]

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
                in tracer.instants_tail(self.events_tail)
            ]
        # the kernel's event logs: the "recent dispatched events" black
        # box — scheduling decisions, drains, governor switches.  A
        # shut-down boot's session keeps each log's last records, as many
        # as this tail reads.
        for log in obs.kernel_logs:
            tail = log.tail(self.events_tail)
            # each view's payload is a fresh dict: made JSON-ready in
            # place.  "seq" labels are left out, as repro.faults.diff
            # leaves them out: record order already carries them, and the
            # pinned dump bytes were written without them
            for _t, _kind, payload in tail:
                payload.pop("seq", None)
                for key, value in payload.items():
                    if type(value) not in _SCALARS:
                        payload[key] = _jsonable(value)
            snap["logs"][log.name] = {
                "retained": len(log),
                "dropped": log.dropped,
                "tail": [list(record) for record in tail],
            }
        plan = getattr(obs.sim, "faults", None)
        if plan is not None:
            snap["injections"] = [
                dict(_jsonable(payload), t_ns=t)
                for t, kind, payload in plan.log.tail(self.events_tail)
                if kind == "inject"
            ]
        return snap

    def _actions_snapshot(self):
        """Actuator decisions: the tail of each session's powercap ring,
        in session order."""
        out = []
        for obs in self.sessions:
            ring = obs.powercap_ring()
            if ring is None:
                continue
            for entry in _tail(ring, self.events_tail):
                action = {str(k): v if type(v) in _SCALARS else _jsonable(v)
                          for k, v in entry.items()}
                action["session"] = obs.label
                out.append(action)
        return out

    def _write(self, dump):
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir,
                            "flight-{:03d}.json".format(dump["seq"]))
        # one compact line: ``indent=`` (like any ``json.dump`` to a
        # handle) runs json's pure-Python encoder, several times slower
        # than the C encoder ``json.dumps`` runs
        with open(path, "w") as handle:
            handle.write(_dump_text(dump))
            handle.write("\n")
        self.paths.append(path)
        return path

    def flush(self):
        """Write the manifest if anything triggered; returns the dump
        count."""
        if self.paths or self.suppressed:
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
