"""Exporters: Chrome trace-event JSON, metrics snapshots, text tables.

The trace exporter emits the Chrome trace-event format (the ``traceEvents``
array form), which Perfetto, ``chrome://tracing``, and Speedscope all open
directly.  Spans become async begin/end pairs (``ph: "b"``/``"e"``) grouped
by the id of their *root* span, which is what renders a balloon's per-core
IPI shootdowns nested under the balloon span.  Instants become ``"i"``
events and counter samples become ``"C"`` events (graphed tracks).

One exported file can hold many simulator runs: each :class:`~repro.obs
.session.Obs` session becomes one trace "process" (pid), and each track
within it one named "thread" (tid) — so ``python -m repro.experiments fig6
--trace t.json`` yields a single timeline with every boot of the experiment
side by side.
"""

import json

from repro.analysis.report import format_table
from repro.obs.metrics import MetricsRegistry


def _us(t_ns):
    """Chrome trace timestamps are microseconds; keep ns resolution."""
    return t_ns / 1000.0


def chrome_trace_events(sessions):
    """The ``traceEvents`` list for a set of Obs sessions."""
    events = []
    body = []   # (ts_ns, rank, tiebreak, event) — sorted after collection
    for pid, obs in enumerate(sessions, start=1):
        tracer = obs.tracer
        tracks = sorted(
            {span.track for span in tracer.spans}
            | {track for _t, track, _n, _c, _a in tracer.instants}
            | {track for _t, track, _n, _v in tracer.samples}
        )
        tids = {track: tid for tid, track in enumerate(tracks, start=1)}
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": obs.label or
                                             "run-{}".format(pid)},
        })
        for track, tid in tids.items():
            events.append({
                "ph": "M", "pid": pid, "tid": tid, "ts": 0,
                "name": "thread_name", "args": {"name": track or "main"},
            })

        trace_end = obs.sim.now
        # span.id -> its root (the async grouping id).  ``spans`` is in
        # begin order and a parent begins before its children, so the
        # parent's root is already known: one lookup per span, no walk.
        roots = {}
        for order, span in enumerate(tracer.spans):
            root = roots[span.id] = roots.get(span.parent_id, span)
            cat = root.cat or "span"
            tid = tids[span.track]
            begin = {
                "ph": "b", "cat": cat, "id": root.id, "name": span.name,
                "pid": pid, "tid": tid, "ts": _us(span.start),
                "args": dict(span.args),
            }
            body.append((span.start, 0, order, begin))
            end_t = span.end
            end_args = {}
            if end_t is None:
                # Unclosed span (dropped IPI, stuck drain): close it at the
                # end of the trace and say so — the gap IS the finding.
                end_t = trace_end
                end_args["unfinished"] = True
            end = {
                "ph": "e", "cat": cat, "id": root.id, "name": span.name,
                "pid": pid, "tid": tid, "ts": _us(end_t), "args": end_args,
            }
            # Ends at the same instant unwind LIFO (children close before
            # parents), which keeps every async stack properly nested.
            body.append((end_t, 2, -order, end))

        for order, (t, track, name, cat, args) in enumerate(tracer.instants):
            body.append((t, 1, order, {
                "ph": "i", "s": "t", "cat": cat or "event", "name": name,
                "pid": pid, "tid": tids[track], "ts": _us(t),
                "args": dict(args),
            }))
        for order, (t, track, name, values) in enumerate(tracer.samples):
            body.append((t, 1, order, {
                "ph": "C", "name": name, "pid": pid, "tid": tids[track],
                "ts": _us(t), "args": dict(values),
            }))

    body.sort(key=lambda item: (item[0], item[1], item[2]))
    events.extend(event for _t, _r, _o, event in body)
    return events


#: trace events per ``json.dumps`` call: about 0.5 MB of text at a time,
#: never the whole multi-MB document as one string
TRACE_CHUNK = 4096


def export_chrome_trace(sessions, path):
    """Write one Chrome-trace/Perfetto JSON file covering ``sessions``.

    The file is the document ``{"traceEvents": [...], "displayTimeUnit":
    "ns", "otherData": {...}}``, byte for byte what ``json.dump`` writes,
    but encoded ``TRACE_CHUNK`` events per ``json.dumps`` call, which runs
    json's C encoder: ``json.dump`` to a handle runs the pure-Python one.

    Returns the number of trace events written.
    """
    events = chrome_trace_events(sessions)
    other = {
        "generator": "repro.obs",
        "sessions": [obs.label for obs in sessions],
    }
    with open(path, "w") as handle:
        handle.write('{"traceEvents": [')
        for start in range(0, len(events), TRACE_CHUNK):
            if start:
                handle.write(", ")
            # "[e1, e2, ...]" less its brackets; ", " is json.dump's separator
            handle.write(json.dumps(events[start:start + TRACE_CHUNK])[1:-1])
        handle.write('], "displayTimeUnit": "ns", "otherData": ')
        handle.write(json.dumps(other))
        handle.write("}")
    return len(events)


# -- metrics snapshots -------------------------------------------------------------


def metrics_snapshot(sessions):
    """JSON-ready snapshot: per-session metrics plus a merged rollup.

    ``unfinished_spans`` counts the spans still open at snapshot time, per
    session and summed — the aggregate the exporter's per-span
    ``unfinished: true`` annotations never provided, and the number the
    alert engine's trace-liveness rule watches.
    """
    merged = MetricsRegistry()
    per_session = []
    unfinished_total = 0
    for obs in sessions:
        merged.merge_from(obs.metrics)
        unfinished = obs.tracer.unfinished_count()
        unfinished_total += unfinished
        per_session.append({
            "label": obs.label,
            "sim_ns": obs.sim.now,
            "metrics": obs.metrics.snapshot(),
            "logs": obs.log_stats(),
            "unfinished_spans": unfinished,
        })
    return {"sessions": per_session, "merged": merged.snapshot(),
            "unfinished_spans": unfinished_total}


def export_metrics(sessions, path):
    """Write the metrics snapshot as JSON; returns the snapshot dict."""
    snap = metrics_snapshot(sessions)
    with open(path, "w") as handle:
        json.dump(snap, handle, indent=2, sort_keys=True)
    return snap


# -- timeline series ---------------------------------------------------------------


def timeline_jsonl_lines(sessions):
    """One JSON document per line, one line per (session, series).

    Each line carries the session label, the series name and labels, the
    retained ``[t_ns, value]`` points (oldest first), and the ring's
    dropped- and disordered-sample counts — so a consumer can both replay
    the window and know exactly how much history it is missing (and
    whether any sampler fed it out of order).  Sessions keep boot order;
    series within a session are sorted by (name, labels), so the dump is
    deterministic.
    """
    lines = []
    for obs in sessions:
        timeline = getattr(obs, "timeline", None)
        if timeline is None:
            continue
        for series in timeline.all():
            lines.append(json.dumps({
                "session": obs.label,
                "series": series.name,
                "labels": dict(series.labels),
                "dropped": series.dropped,
                "disordered": series.disordered,
                "points": [[t, v] for t, v in series.points()],
            }, sort_keys=True))
    return lines


def export_timeline_jsonl(sessions, path):
    """Write the JSONL time-series dump; returns the number of series."""
    lines = timeline_jsonl_lines(sessions)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


# -- discrete events: actuator actions + fault injections --------------------------


def events_jsonl_lines(sessions):
    """One JSON document per line: actuator actions and fault injections.

    The timeline dump carries the continuous signals; this surface carries
    the discrete causes — every retained powercap actuator decision
    (``kind: "action"``, from each kernel's
    :class:`~repro.powercap.telemetry.TelemetryRing`) and every fault the
    installed :class:`~repro.faults.plan.FaultPlan` injected
    (``kind: "inject"``).  The explain engine joins these against breached
    series windows to name *why* an alert fired.  Order is deterministic:
    sessions in boot order, each session's rings oldest-first.
    """
    lines = []
    for obs in sessions:
        kernel = getattr(obs, "kernel", None)
        controller = getattr(kernel, "powercap", None)
        if controller is not None:
            for entry in controller.telemetry.records():
                doc = dict(entry, session=obs.label, kind="action")
                doc["t_ns"] = doc.pop("t")
                lines.append(json.dumps(doc, sort_keys=True))
        plan = getattr(obs.sim, "faults", None)
        if plan is not None:
            for t, kind, payload in plan.log:
                if kind != "inject":
                    continue
                doc = dict(payload, session=obs.label, kind="inject", t_ns=t)
                lines.append(json.dumps(doc, sort_keys=True, default=str))
    return lines


def export_events_jsonl(sessions, path):
    """Write the discrete-event JSONL dump; returns the line count."""
    lines = events_jsonl_lines(sessions)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


def format_metrics_table(snapshot):
    """Aligned-text rendering of a merged metrics snapshot."""
    merged = snapshot.get("merged", snapshot)
    rows = []
    for name, value in merged["counters"].items():
        rows.append([name, "counter", str(value), "", ""])
    for name, gauge in merged["gauges"].items():
        rows.append([
            name, "gauge", _fmt(gauge["value"]),
            _fmt(gauge["min"]), _fmt(gauge["max"]),
        ])
    for name, hist in merged["histograms"].items():
        rows.append([
            name, "histogram",
            "n={} mean={}".format(hist["count"], _fmt(hist["mean"])),
            _fmt(hist["min"]), _fmt(hist["max"]),
        ])
    if not rows:
        return "(no metrics recorded)"
    return format_table(["metric", "kind", "value", "min", "max"], rows,
                        title="metrics snapshot")


def _fmt(value):
    if value is None:
        return "--"
    if isinstance(value, float):
        return "{:.6g}".format(value)
    return str(value)
