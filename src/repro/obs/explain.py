"""The causal explain engine: from fired alerts to incident reports.

PR 8's alert engine answers *that* an SLO broke; this module answers
*why*.  Given the evidence a run left behind — a flight-recorder dump
(:mod:`repro.obs.flight`) or a ``--telemetry`` bundle directory — it
produces one structured **incident report** per alert episode:

1. **window** — the breach window around the firing sample, sized from
   the breached series' own sampling cadence and the rule's streak (the
   breach began ``streak`` samples before the alert latched);
2. **correlation** — every other exported series (per-leaf grants,
   per-node caps, placement drops, tenant draw ...) hold-resampled onto
   the window grid and ranked by time-aligned Pearson correlation with
   the breached signal — the "what moved with it" shortlist;
3. **attribution** — the :mod:`repro.accounting` policies (per-sample /
   even-split / last-trigger) run over the window via
   :func:`repro.accounting.incident.attribute_window`, naming the top
   contributing tenants (cluster evidence) and sandboxes (per-node
   leaf series) in the paper's own accounting semantics;
4. **discrete causes** — the actuator actions (from each powercap
   controller's decision log) and injected faults that landed inside
   the window, with injection sites grouped and counted.

Reports render three ways: canonical JSON (:func:`render_json` — byte
deterministic, the CI-asserted artifact), an aligned-text digest
(:func:`format_incidents`), and a Chrome-trace overlay
(:func:`overlay_trace_events`) whose per-entity counter tracks graph the
attributed power next to alert/injection instants in Perfetto.

Everything here is pure post-processing over exported files; nothing
touches a live simulator.
"""

import json
import math
import os

from repro.accounting.incident import (
    attribute_window,
    hold_resample,
    top_entity,
)
from repro.analysis.report import format_table
from repro.obs.timeline import series_key

#: window sizing when a breached series has too few points to estimate
#: its cadence (ns) — one cluster epoch
DEFAULT_GAP_NS = 250_000_000

#: samples after the firing instant kept in the window (the controller's
#: reaction is evidence too)
POST_SAMPLES = 2

#: correlated-series shortlist length
TOP_CORRELATED = 8

#: grid resolution for correlation and attribution within a window
WINDOW_BINS = 24

#: discrete events listed verbatim per incident (totals are always exact)
MAX_LISTED_EVENTS = 40

#: attribution group -> singular row label in the text report
_SINGULAR = {"tenants": "tenant", "sandboxes": "sandbox"}


class Evidence:
    """Normalized run evidence: series, alerts, actions, injections.

    One shape regardless of source.  ``series`` entries are dicts with
    ``session``/``name``/``labels``/``points``; ``alerts`` are
    :meth:`~repro.obs.alerts.Alert.to_dict` dicts; ``actions`` are
    powercap decision payloads (``node``, ``measured_w``, ``budget_w``,
    ``action``, ``level``) and ``injections`` fault-plan log payloads,
    each plus ``session``/``t_ns``.
    """

    def __init__(self, source, kind):
        self.source = source
        self.kind = kind             # "bundle" | "flight"
        self.series = []
        self.alerts = []
        self.actions = []
        self.injections = []

    def add_series(self, session, name, labels, points):
        self.series.append({
            "session": session, "name": name, "labels": dict(labels or {}),
            "points": [(int(t), float(v)) for t, v in points],
        })

    def find_series(self, name, session=None, labels=None):
        """Matching series entries (label subset match), evidence order."""
        out = []
        for entry in self.series:
            if entry["name"] != name:
                continue
            if session is not None and entry["session"] != session:
                continue
            if labels and any(entry["labels"].get(k) != v
                              for k, v in labels.items()):
                continue
            out.append(entry)
        return out

    def merged_points(self, entries):
        """Points of several series entries merged in time order."""
        points = [p for entry in entries for p in entry["points"]]
        points.sort()
        return points


# -- loaders -----------------------------------------------------------------------


def load(path):
    """Evidence from a flight dump file, a flight dir, or a bundle dir."""
    if os.path.isfile(path):
        return load_flight_dump(path)
    if os.path.isdir(path):
        if os.path.exists(os.path.join(path, "series.jsonl")):
            return load_bundle(path)
        dumps = sorted(
            name for name in os.listdir(path)
            if name.startswith("flight-") and name.endswith(".json"))
        if dumps:
            return [load_flight_dump(os.path.join(path, name))
                    for name in dumps]
        raise FileNotFoundError(
            "{}: neither a telemetry bundle (series.jsonl) nor a flight "
            "dump directory (flight-*.json)".format(path))
    raise FileNotFoundError(path)


def load_bundle(path):
    """Evidence from a ``--telemetry DIR`` bundle."""
    evidence = Evidence(path, "bundle")
    with open(os.path.join(path, "series.jsonl")) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            evidence.add_series(doc["session"], doc["series"],
                                doc.get("labels"), doc.get("points", ()))
    report = os.path.join(path, "report.json")
    if os.path.exists(report):
        with open(report) as handle:
            evidence.alerts = list(json.load(handle).get("alerts", ()))
    events = os.path.join(path, "events.jsonl")
    if os.path.exists(events):
        with open(events) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                if doc.get("kind") == "action":
                    evidence.actions.append(doc)
                elif doc.get("kind") == "inject":
                    evidence.injections.append(doc)
    return evidence


def load_flight_dump(path):
    """Evidence from one self-contained flight dump file."""
    with open(path) as handle:
        dump = json.load(handle)
    return evidence_from_dump(dump, source=path)


def evidence_from_dump(dump, source="<memory>"):
    """Evidence from one flight dump, loaded as a dict."""
    evidence = Evidence(source, "flight")
    for session in dump.get("sessions", ()):
        label = session.get("label", "")
        for entry in session.get("series", ()):
            evidence.add_series(label, entry["name"], entry.get("labels"),
                                entry.get("points", ()))
        for inj in session.get("injections", ()):
            evidence.injections.append(dict(inj, session=label,
                                            kind="inject"))
    for action in dump.get("actions", ()):
        doc = dict(action, kind="action")
        if "t" in doc:
            doc["t_ns"] = doc.pop("t")
        evidence.actions.append(doc)
    evidence.alerts = list(dump.get("alerts", ()))
    trigger = dump.get("trigger", {})
    if trigger.get("type") == "violation":
        # Violation-triggered dumps carry no Alert; synthesize an episode
        # so the walk below has a trigger to explain.
        evidence.alerts.append({
            "rule": "check." + trigger.get("invariant", "violation"),
            "severity": "critical",
            "session": trigger.get("component", ""),
            "series": "", "labels": {}, "t_ns": trigger.get("t_ns", 0),
            "value": 0.0, "streak": 1,
            "message": trigger.get("message", ""),
        })
    return evidence


# -- the incident walk -------------------------------------------------------------


def _median_gap(times):
    if len(times) < 2:
        return DEFAULT_GAP_NS
    gaps = sorted(b - a for a, b in zip(times, times[1:]) if b > a)
    return gaps[len(gaps) // 2] if gaps else DEFAULT_GAP_NS


def _pearson(a, b):
    n = len(a)
    if n < 2:
        return None
    mean_a = sum(a) / n
    mean_b = sum(b) / n
    da = [x - mean_a for x in a]
    db = [x - mean_b for x in b]
    var_a = sum(x * x for x in da)
    var_b = sum(x * x for x in db)
    if var_a <= 0 or var_b <= 0:
        return None          # a constant signal correlates with nothing
    r = sum(x * y for x, y in zip(da, db)) / math.sqrt(var_a * var_b)
    return max(-1.0, min(1.0, r))


def _window_points(points, t0, t1):
    return [(t, v) for t, v in points if t0 <= t < t1]


def _correlated(evidence, breached, grid, breached_values, t0, t1):
    """Other series ranked by |Pearson r| against the breached window."""
    scored = []
    for entry in evidence.series:
        if entry is breached:
            continue
        if len(_window_points(entry["points"], t0, t1)) < 2:
            continue
        values = hold_resample(entry["points"], grid)
        r = _pearson(list(breached_values), list(values))
        if r is None:
            continue
        scored.append({
            "session": entry["session"],
            "series": series_key(entry["name"],
                                 sorted(entry["labels"].items())),
            "r": round(r, 4),
        })
    scored.sort(key=lambda row: (-abs(row["r"]), row["session"],
                                 row["series"]))
    return scored[:TOP_CORRELATED]


def _scoped(evidence, name, session):
    """Series entries for ``name``, preferring the alert's own session.

    A bundle can hold several independent runs (e.g. both allocators'
    cluster sessions); attributing across them would double-count, so
    when the triggering session carries the series itself, only its
    entries are used — the all-sessions union is the fallback for
    evidence where the alert session has none (a checker violation, a
    node alert explained from cluster-level series).
    """
    if session:
        scoped = evidence.find_series(name, session=session)
        if scoped:
            return scoped
    return evidence.find_series(name)


def _attribution(evidence, alert, t0, t1):
    """Tenant- and sandbox-level accounting over the incident window."""
    out = {}
    session = alert.get("session", "")
    # tenants: cluster-level measured draw vs the cluster aggregate
    tenants = {}
    for entry in _scoped(evidence, "cluster.tenant_measured_w", session):
        tenant = entry["labels"].get("tenant")
        if tenant:
            tenants.setdefault(tenant, []).extend(entry["points"])
    total = evidence.merged_points(
        _scoped(evidence, "cluster.aggregate_w", session))
    if tenants and total:
        for points in tenants.values():
            points.sort()
        out["tenants"] = attribute_window(total, tenants, t0, t1,
                                          n_bins=WINDOW_BINS)
    # sandboxes: per-leaf measured draw vs the node daemon's aggregate;
    # entities are "session/leaf" so multi-node evidence stays unambiguous
    leaves = {}
    for entry in _scoped(evidence, "powercap.leaf_measured_w", session):
        leaf = entry["labels"].get("leaf")
        if leaf:
            name = "{}/{}".format(entry["session"], leaf)
            leaves.setdefault(name, []).extend(entry["points"])
    leaf_totals = evidence.merged_points(
        _scoped(evidence, "powercap.aggregate_w", session))
    if leaves and leaf_totals:
        for points in leaves.values():
            points.sort()
        out["sandboxes"] = attribute_window(leaf_totals, leaves, t0, t1,
                                            n_bins=WINDOW_BINS)
    return out


def _grouped_injections(injections):
    groups = {}
    for inj in injections:
        site = inj.get("site", "?")
        group = groups.setdefault(site, {"site": site, "count": 0,
                                         "sessions": set()})
        group["count"] += 1
        if inj.get("session"):
            group["sessions"].add(inj["session"])
    return [
        {"site": site, "count": groups[site]["count"],
         "sessions": sorted(groups[site]["sessions"])}
        for site in sorted(groups)
    ]


def explain(evidence):
    """Incident reports for every alert episode in ``evidence``.

    ``evidence`` may be one :class:`Evidence` or a list of them (a flight
    dump directory); returns the deterministic report dict rendered by
    :func:`render_json`.
    """
    if isinstance(evidence, list):
        merged = []
        seen = set()
        for one in evidence:
            for incident in explain(one)["incidents"]:
                trig = incident["trigger"]
                key = (trig["rule"], trig["session"], trig["t_ns"])
                if key in seen:
                    continue          # same episode captured by two dumps
                seen.add(key)
                merged.append(incident)
        merged.sort(key=lambda i: (i["trigger"]["t_ns"],
                                   i["trigger"]["session"],
                                   i["trigger"]["rule"]))
        for seq, incident in enumerate(merged):
            incident["id"] = seq
        return {"format": "psbox-incidents", "version": 1,
                "source": [one.source for one in evidence],
                "incidents": merged}

    incidents = []
    episodes = sorted(evidence.alerts,
                      key=lambda a: (a["t_ns"], a["session"], a["rule"]))
    for seq, alert in enumerate(episodes):
        incidents.append(_incident(evidence, alert, seq))
    return {"format": "psbox-incidents", "version": 1,
            "source": evidence.source, "incidents": incidents}


def _incident(evidence, alert, seq):
    matches = evidence.find_series(alert["series"],
                                   session=alert["session"],
                                   labels=alert.get("labels") or None)
    breached = matches[0] if matches else None
    points = breached["points"] if breached else []
    gap = _median_gap([t for t, _v in points])
    streak = max(int(alert.get("streak", 1)), 1)
    t_fire = int(alert["t_ns"])
    t0 = t_fire - (streak + 1) * gap
    t1 = t_fire + POST_SAMPLES * gap

    incident = {
        "id": seq,
        "trigger": dict(alert),
        "window": {"t0_ns": t0, "t1_ns": t1, "gap_ns": gap},
        "breached": None,
        "correlated": [],
        "attribution": {},
        "top": {},
        "actions": [],
        "actions_total": 0,
        "injections": [],
        "injections_total": 0,
        "injection_sites": [],
    }
    if breached is not None:
        in_window = _window_points(points, t0, t1)
        values = [v for _t, v in in_window]
        incident["breached"] = {
            "session": breached["session"],
            "series": series_key(breached["name"],
                                 sorted(breached["labels"].items())),
            "points_in_window": len(in_window),
            "min": round(min(values), 6) if values else None,
            "max": round(max(values), 6) if values else None,
        }
        dt = (t1 - t0) / WINDOW_BINS
        grid = [t0 + dt * (i + 0.5) for i in range(WINDOW_BINS)]
        breached_values = hold_resample(points, grid)
        incident["correlated"] = _correlated(
            evidence, breached, grid, breached_values, t0, t1)

    incident["attribution"] = _attribution(evidence, alert, t0, t1)
    incident["top"] = {
        group: top_entity(incident["attribution"][group])
        for group in sorted(incident["attribution"])
    }

    actions = [a for a in evidence.actions
               if t0 <= int(a.get("t_ns", 0)) < t1
               and a.get("action") not in ("hold", "aggregate")]
    actions.sort(key=lambda a: (int(a["t_ns"]), a.get("session", ""),
                                a.get("node", "")))
    incident["actions_total"] = len(actions)
    incident["actions"] = actions[:MAX_LISTED_EVENTS]

    injections = [i for i in evidence.injections
                  if t0 <= int(i.get("t_ns", 0)) < t1]
    injections.sort(key=lambda i: (int(i["t_ns"]), i.get("session", ""),
                                   i.get("site", "")))
    incident["injections_total"] = len(injections)
    incident["injections"] = injections[:MAX_LISTED_EVENTS]
    incident["injection_sites"] = _grouped_injections(injections)
    return incident


# -- renderers ---------------------------------------------------------------------


def render_json(report):
    """The canonical byte-deterministic rendering (CI asserts on this)."""
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def format_incidents(report):
    """Aligned-text digest: one block per incident."""
    incidents = report["incidents"]
    if not incidents:
        return "explain: no alert episodes in {}".format(report["source"])
    blocks = []
    for incident in incidents:
        trig = incident["trigger"]
        window = incident["window"]
        lines = [
            "incident #{}: {} [{}] on {} at {:.4f}s".format(
                incident["id"], trig["rule"], trig["severity"],
                trig["session"] or "-", trig["t_ns"] / 1e9),
            "  window  {:.4f}s .. {:.4f}s".format(
                window["t0_ns"] / 1e9, window["t1_ns"] / 1e9),
            "  breach  {}".format(
                incident["breached"]["series"] if incident["breached"]
                else "(series not in evidence)"),
        ]
        if trig.get("message"):
            lines.append("  detail  {}".format(trig["message"]))
        for group in sorted(incident["top"]):
            if incident["top"][group]:
                lines.append("  top {:<9} {}".format(
                    _SINGULAR.get(group, group), incident["top"][group]))
        for site in incident["injection_sites"]:
            lines.append("  faults  {} x{} on {}".format(
                site["site"], site["count"],
                ", ".join(site["sessions"]) or "-"))
        if incident["correlated"]:
            rows = [[c["session"], c["series"], "{:+.3f}".format(c["r"])]
                    for c in incident["correlated"]]
            lines.append(format_table(["session", "series", "r"], rows,
                                      title="correlated series"))
        for group in sorted(incident["attribution"]):
            ranked = incident["attribution"][group]["policies"].get(
                "per_sample", [])
            if not ranked:
                continue
            rows = [[row["entity"], "{:.6f}".format(row["energy_j"]),
                     "{:5.1f}%".format(100.0 * row["share"])]
                    for row in ranked]
            lines.append(format_table(
                [_SINGULAR.get(group, group), "energy (J)", "share"],
                rows, title="{} attribution (per_sample)".format(group)))
        if incident["actions_total"]:
            lines.append("  actions {} actuator change(s) in window".format(
                incident["actions_total"]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def overlay_trace_events(report):
    """Chrome-trace overlay: attributed-power counter tracks + instants.

    One pid per incident; per-entity ``"C"`` counter samples graph each
    policy's per-sample attribution across the window bins, and alert /
    injection / action instants mark the discrete causes on their own
    tracks.  Merge-friendly with the main exported trace (distinct pids).
    """
    events = []
    for incident in report["incidents"]:
        pid = 1000 + incident["id"]
        trig = incident["trigger"]
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name",
            "args": {"name": "incident #{} {}".format(
                incident["id"], trig["rule"])},
        })
        events.append({
            "ph": "i", "s": "p", "cat": "alert", "name": trig["rule"],
            "pid": pid, "tid": 1, "ts": trig["t_ns"] / 1000.0,
            "args": {"message": trig.get("message", "")},
        })
        for group in sorted(incident["attribution"]):
            attribution = incident["attribution"][group]
            t0, dt = attribution["t0_ns"], attribution["dt_ns"]
            ranked = attribution["policies"].get("per_sample", [])
            for row in ranked:
                # one counter sample per bin edge is overkill for a
                # report overlay; graph the window-mean attributed power
                mean_w = (row["energy_j"] * 1e9 /
                          (attribution["t1_ns"] - t0)
                          if attribution["t1_ns"] > t0 else 0.0)
                for edge in (t0, attribution["t1_ns"]):
                    events.append({
                        "ph": "C", "pid": pid, "tid": 2,
                        "name": "attributed.{}".format(row["entity"]),
                        "ts": edge / 1000.0,
                        "args": {"watts": round(mean_w, 6)},
                    })
        for inj in incident["injections"]:
            events.append({
                "ph": "i", "s": "t", "cat": "fault",
                "name": "inject." + inj.get("site", "?"),
                "pid": pid, "tid": 3, "ts": inj["t_ns"] / 1000.0,
                "args": {"session": inj.get("session", ""),
                         "fault": inj.get("fault", "")},
            })
        for action in incident["actions"]:
            events.append({
                "ph": "i", "s": "t", "cat": "powercap",
                "name": "action." + action.get("action", "?"),
                "pid": pid, "tid": 4, "ts": action["t_ns"] / 1000.0,
                "args": {"session": action.get("session", ""),
                         "node": action.get("node", ""),
                         "level": action.get("level", 0.0)},
            })
    return events


def export_incident_trace(report, path):
    """Write the overlay trace JSON; returns the event count."""
    events = overlay_trace_events(report)
    with open(path, "w") as handle:
        # dumps, not dump: json.dump to a handle runs the Python encoder
        handle.write(json.dumps({"traceEvents": events,
                                 "displayTimeUnit": "ns"}, sort_keys=True))
    return len(events)


def write_reports(report, out_dir):
    """Write incidents.json / incidents.txt / incident_trace.json.

    Returns the three paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "incidents.json")
    with open(json_path, "w") as handle:
        handle.write(render_json(report))
    text_path = os.path.join(out_dir, "incidents.txt")
    with open(text_path, "w") as handle:
        handle.write(format_incidents(report))
    trace_path = os.path.join(out_dir, "incident_trace.json")
    export_incident_trace(report, trace_path)
    return json_path, text_path, trace_path
