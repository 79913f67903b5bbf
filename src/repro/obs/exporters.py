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

import numpy as np

from repro.analysis.report import format_table
from repro.obs.metrics import MetricsRegistry


#: The JSON texts of the trace events.  The fixed keys are written in the
#: order json.dumps would write them, with its ", " and ": " separators; a
#: %s slot takes a value already encoded as JSON, or inside quotes a fixed
#: ASCII name.
_META = ('{"ph": "M", "pid": %d, "tid": %d, "ts": 0, "name": "%s", '
         '"args": {"name": %s}}')
#: The heads of the body events: one per (kind, category, name, track) of
#: a session, with the values filled in (a % in them doubled), leaving
#: %%d for a span's async id and %%s for its ts and args texts.
_SPAN = ('{"ph": "%s", "cat": %s, "id": %%d, "name": %s, "pid": %d, '
         '"tid": %d, "ts": %%s, "args": %%s}')
_INSTANT = ('{"ph": "i", "s": "t", "cat": %s, "name": %s, "pid": %d, '
            '"tid": %d, "ts": %%s, "args": %%s}')
_COUNTER = ('{"ph": "C", "name": %s, "pid": %d, "tid": %d, "ts": %%s, '
            '"args": %%s}')


class _Encoded(dict):
    """``json.dumps`` of each distinct value, encoded on first use.

    Keys are ``(type, value)``: 1, 1.0 and True are one dict key but
    encode to different texts.
    """

    def __missing__(self, key):
        text = self[key] = json.dumps(key[1])
        return text


class _Heads(dict):
    """The head of each (kind, JSON category, JSON name, tid) of one pid,
    built on first use."""

    def __init__(self, pid):
        super().__init__()
        self.pid = pid

    def __missing__(self, key):
        kind, cat, name, tid = key
        # the head is a format string: a % in a JSON text is doubled
        cat = cat.replace("%", "%%")
        name = name.replace("%", "%%")
        if kind == "i":
            text = _INSTANT % (cat, name, self.pid, tid)
        elif kind == "C":
            text = _COUNTER % (name, self.pid, tid)
        else:
            text = _SPAN % (kind, cat, name, self.pid, tid)
        self[key] = text
        return text


def _trace_records(sessions):
    """The metadata texts and the body columns of a trace.

    Metadata comes first, then every session's spans, instants and
    counter samples.  The body is ``(trace_order, times, heads, ids,
    args)``: four columns with one entry per event, and the permutation
    of them that sorts the events by (time, rank, order).  ``times`` is
    a numpy array; ``heads`` and ``args`` refer to shared texts, and
    ``ids`` holds each span event's async id, None for instants and
    samples, whose heads have no id slot.  Each distinct string and head,
    and each args object, is encoded once, and every args dict before
    anything is written, so an args value json cannot encode raises
    before the file exists.
    """
    strings = _Encoded()
    arg_texts = {}

    def args_text(args):
        # keyed by identity: a tracer records one dict per distinct args
        # repr, and every dict stays alive in its records for the export
        key = id(args)
        text = arg_texts.get(key)
        if text is None:
            text = arg_texts[key] = json.dumps(args)
        return text

    total = sum(2 * len(obs.tracer.spans) + len(obs.tracer.instants)
                + len(obs.tracer.samples) for obs in sessions)
    rank = np.empty(total, np.int8)
    order = np.empty(total, np.intp)
    meta = []
    times = []
    heads = []
    ids = []
    args = []
    for pid, obs in enumerate(sessions, start=1):
        spans = obs.tracer.spans
        instants = obs.tracer.instants
        samples = obs.tracer.samples
        tracks = sorted(
            {span.track for span in spans}
            | {track for _t, track, _n, _c, _a in instants}
            | {track for _t, track, _n, _v in samples}
        )
        tids = {track: tid for tid, track in enumerate(tracks, start=1)}
        label = obs.label or "run-{}".format(pid)
        meta.append(_META % (pid, 0, "process_name",
                             strings[label.__class__, label]))
        for track, tid in tids.items():
            name = track or "main"
            meta.append(_META % (pid, tid, "thread_name",
                                 strings[name.__class__, name]))

        # The session's stretch of the columns is its span begins, span
        # ends, instants, then samples, and sessions follow in order.  A
        # tie on (time, rank, order) happens only across sessions or
        # between an instant and a sample of one session with equal
        # index; the stable sort then keeps column position, which puts
        # the earlier session first and the instant before the sample.
        at = len(args)
        for part_rank, count, step in ((0, len(spans), 1),
                                       (2, len(spans), -1),
                                       (1, len(instants), 1),
                                       (1, len(samples), 1)):
            rank[at:at + count] = part_rank
            order[at:at + count] = np.arange(0, step * count, step)
            at += count

        head = _Heads(pid)
        # span.id -> its root (the async grouping id).  ``spans`` is in
        # begin order and a parent begins before its children, so the
        # parent's root is already known: one lookup per span, no walk.
        roots = {}
        span_ids = []
        end_heads = []
        for span in spans:
            root = roots[span.id] = roots.get(span.parent_id, span)
            cat = root.cat or "span"
            cat = strings[cat.__class__, cat]
            name = strings[span.name.__class__, span.name]
            tid = tids[span.track]
            heads.append(head["b", cat, name, tid])
            end_heads.append(head["e", cat, name, tid])
            span_ids.append(root.id)
            args.append(args_text(span.args))
        heads += end_heads
        ids += span_ids
        ids += span_ids
        times += [span.start for span in spans]
        # Unclosed span (dropped IPI, stuck drain): close it at the end of
        # the trace and say so — the gap IS the finding.  Ends at the same
        # instant unwind LIFO (their order is minus the begin index), so
        # children close before parents and every async stack nests.
        trace_end = obs.sim.now
        times += [trace_end if span.end is None else span.end
                  for span in spans]
        args += ['{"unfinished": true}' if span.end is None else "{}"
                 for span in spans]

        for t, track, name, cat, instant_args in instants:
            cat = cat or "event"
            heads.append(head["i", strings[cat.__class__, cat],
                              strings[name.__class__, name], tids[track]])
            times.append(t)
            args.append(args_text(instant_args))
        for t, track, name, values in samples:
            heads.append(head["C", "", strings[name.__class__, name],
                              tids[track]])
            times.append(t)
            args.append(args_text(values))
        ids += [None] * (len(instants) + len(samples))

    times = np.array(times)
    return meta, (np.lexsort((order, rank, times)), times, heads, ids, args)


def _trace_chunks(meta, body):
    """The event texts, joined ``TRACE_CHUNK`` at a time, in trace order.

    A body event's text is formatted only when its chunk is: no list of
    every event text ever exists.  Chrome trace timestamps are
    microseconds; t / 1000.0 keeps ns resolution, and float.__repr__ is
    what json's encoder writes.  Each run of equal times formats its ts
    once.
    """
    ts = float.__repr__
    chunk = TRACE_CHUNK
    for start in range(0, len(meta), chunk):
        yield ", ".join(meta[start:start + chunk])
    trace_order, times, heads, ids, args = body
    last_t = ts_text = None
    for start in range(0, len(trace_order), chunk):
        index = trace_order[start:start + chunk]
        texts = []
        for i, t in zip(index.tolist(), times[index].tolist()):
            if t != last_t:
                last_t = t
                ts_text = ts(t / 1000.0)
            span_id = ids[i]
            texts.append(heads[i] % (ts_text, args[i]) if span_id is None
                         else heads[i] % (span_id, ts_text, args[i]))
        yield ", ".join(texts)


def chrome_trace_events(sessions):
    """The ``traceEvents`` list for a set of Obs sessions.

    Parsed from the texts :func:`export_chrome_trace` writes, so the list
    and the file cannot disagree.
    """
    return json.loads("[{}]".format(
        ", ".join(_trace_chunks(*_trace_records(sessions)))))


#: trace events per write: about 0.5 MB of text at a time, never the
#: whole multi-MB document as one string
TRACE_CHUNK = 4096


def export_chrome_trace(sessions, path):
    """Write one Chrome-trace/Perfetto JSON file covering ``sessions``.

    The file is the document ``{"traceEvents": [...], "displayTimeUnit":
    "ns", "otherData": {...}}``, byte for byte what ``json.dump`` writes.
    The events are sorted by one lexsort over key columns, and each
    ``TRACE_CHUNK`` of them is formatted into JSON text just before it is
    written: no event dict, no per-event record, and no list of every
    event text is built.

    Returns the number of trace events written.
    """
    meta, body = _trace_records(sessions)
    other = json.dumps({
        "generator": "repro.obs",
        "sessions": [obs.label for obs in sessions],
    })
    with open(path, "w") as handle:
        handle.write('{"traceEvents": [')
        separator = ""
        for text in _trace_chunks(meta, body):
            handle.write(separator)
            handle.write(text)
            separator = ", "
        handle.write('], "displayTimeUnit": "ns", "otherData": ')
        handle.write(other)
        handle.write("}")
    return len(meta) + len(body[0])


# -- metrics snapshots -------------------------------------------------------------


def metrics_snapshot(sessions, registries=None):
    """JSON-ready snapshot: per-session metrics plus a merged rollup.

    ``merged`` folds ``registries`` in order with ``merge_from``: by
    default each session's, and from the CLI its run's
    :attr:`~repro.obs.runtime.ObsRun.registries`, which also hold the
    metrics of cells that ran in pool workers at their place in the
    serial order.  ``sessions`` (in-process ones only) give the
    per-session entries.

    ``unfinished_spans`` counts the spans still open at snapshot time, per
    session and summed — the aggregate the exporter's per-span
    ``unfinished: true`` annotations never provided, and the number the
    alert engine's trace-liveness rule watches.
    """
    if registries is None:
        registries = [obs.metrics for obs in sessions]
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge_from(registry)
    per_session = []
    unfinished_total = 0
    for obs in sessions:
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


def export_metrics(sessions, path, registries=None):
    """Write the metrics snapshot as JSON; returns the snapshot dict."""
    snap = metrics_snapshot(sessions, registries)
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
        ring = obs.powercap_ring()
        if ring is not None:
            for entry in ring.records():
                doc = dict(entry, session=obs.label, kind="action")
                doc["t_ns"] = doc.pop("t")
                lines.append(json.dumps(doc, sort_keys=True))
        plan = getattr(obs.sim, "faults", None)
        if plan is not None:
            for t, _kind, payload in plan.log.filter("inject"):
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
