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
#: The heads of the body events: one per kind and site of a session (for
#: spans, per span site and root category), with the values filled in (a
#: % in them doubled), leaving %%d for a span's async id and %%s for its
#: ts and args texts.
_SPAN = ('{"ph": "%s", "cat": %s, "id": %%d, "name": %s, "pid": %d, '
         '"tid": %d, "ts": %%s, "args": %%s}')
_INSTANT = ('{"ph": "i", "s": "t", "cat": %s, "name": %s, "pid": %d, '
            '"tid": %d, "ts": %%s, "args": %%s}')
_COUNTER = ('{"ph": "C", "name": %s, "pid": %d, "tid": %d, "ts": %%s, '
            '"args": %%s}')
#: the args texts of a span's end event: closed, and still open
_END_ARGS = ("{}", '{"unfinished": true}')


def _used(size, *columns):
    """The values below ``size`` that any of ``columns`` holds, ascending."""
    used = np.zeros(size, bool)
    for column in columns:
        used[column] = True
    return np.flatnonzero(used).tolist()


def _head(kind, cat, name, pid, tid):
    """The head of a ``kind`` event ("b", "e", "i" or "C") of one site.

    The head is a format string: a % in a JSON text is doubled.
    """
    name = json.dumps(name).replace("%", "%%")
    if kind == "C":
        return _COUNTER % (name, pid, tid)
    cat = json.dumps(cat).replace("%", "%%")
    if kind == "i":
        return _INSTANT % (cat, name, pid, tid)
    return _SPAN % (kind, cat, name, pid, tid)


def _trace_records(sessions):
    """The metadata texts and the body columns of a trace.

    Metadata comes first, then every session's spans, instants and
    counter samples.  The body is ``(trace_order, times, head, ids, args,
    heads, arg_texts)``: the permutation that sorts the events by (time,
    rank, order), four numpy columns with one entry per event, and the
    texts the ``head`` and ``args`` columns index.
    ``ids`` holds each span event's async id, -1 for instants and
    samples, whose heads have no id slot.  Heads are built per site, not
    per event, and each args dict a record holds is encoded once, every
    one before anything is written, so an args value json cannot encode
    raises before the file exists.
    """
    arg_texts = list(_END_ARGS)
    arg_index = []
    for obs in sessions:
        # a record's args index -> its text's; a dict no record holds
        # (begin args that an end with args replaced) is not encoded
        tracer = obs.tracer
        table = tracer.args_table
        index = np.zeros(len(table), np.int32)
        for used in _used(len(table), *(
                np.frombuffer(column, np.int32) for column in (
                    tracer.span_args, tracer.instant_args,
                    tracer.sample_args))):
            index[used] = len(arg_texts)
            arg_texts.append(json.dumps(table[used]))
        arg_index.append(index)

    total = sum(2 * len(obs.tracer) + len(obs.tracer.instant_t)
                + len(obs.tracer.sample_t) for obs in sessions)
    times = np.empty(total, np.int64)
    rank = np.empty(total, np.int8)
    order = np.empty(total, np.int32)
    head = np.empty(total, np.int32)
    ids = np.empty(total, np.int32)
    args = np.empty(total, np.int32)
    meta = []
    heads = []
    at = 0
    for pid, (obs, index) in enumerate(zip(sessions, arg_index), start=1):
        tracer = obs.tracer
        sites = tracer.sites
        tids = {track: tid for tid, track in enumerate(
            sorted({track for _name, _cat, track in sites}), start=1)}
        label = obs.label or "run-{}".format(pid)
        meta.append(_META % (pid, 0, "process_name", json.dumps(label)))
        for track, tid in tids.items():
            meta.append(_META % (pid, tid, "thread_name",
                                 json.dumps(track or "main")))

        # The session's stretch of the columns is its span begins, span
        # ends, instants, then samples, and sessions follow in order.  A
        # tie on (time, rank, order) happens only across sessions or
        # between an instant and a sample of one session with equal
        # index; the stable sort then keeps column position, which puts
        # the earlier session first and the instant before the sample.
        spans = len(tracer)
        begins = slice(at, at + spans)
        ends = slice(begins.stop, begins.stop + spans)
        instants = slice(ends.stop, ends.stop + len(tracer.instant_t))
        samples = slice(instants.stop, instants.stop + len(tracer.sample_t))
        at = samples.stop
        for part, part_rank, step in ((begins, 0, 1), (ends, 2, -1),
                                      (instants, 1, 1), (samples, 1, 1)):
            rank[part] = part_rank
            order[part] = np.arange(0, step * (part.stop - part.start), step)

        # Spans.  A span's async id is its root's, found by following the
        # parent ids until none moves.  Unclosed span (dropped IPI, stuck
        # drain): close it at the end of the trace and say so — the gap
        # IS the finding.  Ends at the same instant unwind LIFO (their
        # order is minus the begin index), so children close before
        # parents and every async stack nests.
        parent = np.frombuffer(tracer.span_parent, np.int64)
        root = np.arange(1, spans + 1)
        while True:
            up = parent[root - 1]
            moves = up != 0
            if not moves.any():
                break
            root[moves] = up[moves]
        ids[begins] = root
        ids[ends] = root
        times[begins] = np.frombuffer(tracer.span_start, np.int64)
        end_times = times[ends]
        end_times[:] = np.frombuffer(tracer.span_end, np.int64)
        unfinished = end_times == -1
        end_times[unfinished] = obs.sim.now
        args[begins] = index[np.frombuffer(tracer.span_args, np.int32)]
        args[ends] = unfinished
        # A span's head names its root's category: one begin and end head
        # per (span site, root category), mapped through a small table.
        cats = {}
        site_cat = np.array([cats.setdefault(cat, len(cats))
                             for _name, cat, _track in sites], np.int32)
        cats = list(cats)
        site = np.frombuffer(tracer.span_site, np.int32)
        key = site * len(cats) + site_cat[site[root - 1]]
        table = np.zeros(len(sites) * len(cats), np.int32)
        for pair in _used(len(table), key):
            span_site, root_cat = divmod(pair, len(cats))
            name, _cat, track = sites[span_site]
            table[pair] = len(heads)
            for kind in "be":
                heads.append(_head(kind, cats[root_cat] or "span", name,
                                   pid, tids[track]))
        head[begins] = table[key]
        head[ends] = head[begins] + 1

        # Instants and samples: one head per site.
        for part, kind, column_t, column_site, column_args in (
                (instants, "i", tracer.instant_t, tracer.instant_site,
                 tracer.instant_args),
                (samples, "C", tracer.sample_t, tracer.sample_site,
                 tracer.sample_args)):
            site = np.frombuffer(column_site, np.int32)
            table = np.zeros(len(sites), np.int32)
            for used in _used(len(sites), site):
                name, cat, track = sites[used]
                table[used] = len(heads)
                heads.append(_head(kind, cat or "event", name, pid,
                                   tids[track]))
            times[part] = np.frombuffer(column_t, np.int64)
            head[part] = table[site]
            ids[part] = -1
            args[part] = index[np.frombuffer(column_args, np.int32)]

    return meta, (np.lexsort((order, rank, times)), times, head, ids, args,
                  heads, arg_texts)


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
    trace_order, times, head, ids, args, heads, arg_texts = body
    last_t = ts_text = None
    for start in range(0, len(trace_order), chunk):
        index = trace_order[start:start + chunk]
        texts = []
        for t, h, span_id, a in zip(times[index].tolist(),
                                    head[index].tolist(),
                                    ids[index].tolist(),
                                    args[index].tolist()):
            if t != last_t:
                last_t = t
                ts_text = ts(t / 1000.0)
            texts.append(heads[h] % (ts_text, arg_texts[a]) if span_id < 0
                         else heads[h] % (span_id, ts_text, arg_texts[a]))
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

    Each line carries the session label, the series name and labels,
    every ``[t_ns, value]`` point (oldest first), the dropped-sample
    count (always 0: a series keeps every sample) and the
    disordered-sample count — so a consumer can replay the run and see
    whether any sampler fed it out of order.  Sessions keep boot order;
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
    the discrete causes — every powercap controller decision
    (``kind: "action"``, from each session's
    :meth:`~repro.obs.session.Obs.powercap_log`) and every fault the
    installed :class:`~repro.faults.plan.FaultPlan` injected
    (``kind: "inject"``).  The explain engine joins these against breached
    series windows to name *why* an alert fired.  Order is deterministic:
    sessions in boot order, each session's logs oldest-first.
    """
    lines = []
    for obs in sessions:
        log = obs.powercap_log()
        if log is not None:
            for t, _kind, payload in log:
                doc = dict(payload, session=obs.label, kind="action", t_ns=t)
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
