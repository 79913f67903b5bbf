"""Exporter tests: Chrome-trace JSON validity, nesting, bit-identity.

The trace writer formats each event's JSON text straight from the
tracer's records.  ``reference_trace_events`` below builds the same events
as plain dicts; the written file must equal ``json.dumps`` of that
reference document byte for byte, on hand-built sessions and on random
ones.

The differential test at the bottom is the layer's core promise: installing
an Obs session — tracing off *or on* — leaves the run bit-identical to one
without the layer (the tracer is read-only and draws no RNG).
"""

import io
import json
import os
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.faults_exp import build_workload
from repro.faults import fingerprint
from repro.obs import (
    Obs,
    chrome_trace_events,
    export_chrome_trace,
    export_metrics,
    exporters,
    format_metrics_table,
    metrics_snapshot,
)
from repro.obs.exporters import export_timeline_jsonl, timeline_jsonl_lines
from repro.obs.timeline import Timeline
from repro.sim.engine import Simulator


def _session_with_activity():
    """A hand-built session: nested spans, cross-event close, leak, extras."""
    sim = Simulator(0)
    obs = Obs(sim, label="unit").install()
    tracer = obs.tracer
    state = {}

    def begin():
        state["balloon"] = tracer.begin("balloon.cpu", cat="balloon",
                                        track="smp", app=1)
        state["ipi"] = tracer.begin("ipi.shootdown", parent=state["balloon"],
                                    core=1)
        tracer.instant("loan.grant", cat="loan", track="smp", app=1)
        sim.call_later(300, arrive)

    def arrive():
        tracer.end(state["ipi"])
        tracer.sample("opp.cpu", track="governor.cpu", opp=2)
        sim.call_later(200, finish)

    def finish():
        tracer.end(state["balloon"], reason="done")
        tracer.begin("leak", cat="balloon", track="smp",
                     parent=state["balloon"])

    sim.at(100, begin)
    sim.run()
    obs.metrics.inc("smp.balloons")
    obs.metrics.observe("smp.balloon_ns", 500.0)
    obs.metrics.set("level", 0.25)
    return obs


@pytest.fixture()
def events():
    return chrome_trace_events([_session_with_activity()])


def test_trace_events_are_json_serializable(events):
    parsed = json.loads(json.dumps(events))
    assert len(parsed) == len(events)
    assert all(e["ph"] in ("M", "b", "e", "i", "C") for e in parsed)


def test_trace_has_process_and_thread_metadata(events):
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["name"] for e in meta}
    assert names == {"process_name", "thread_name"}
    process = next(e for e in meta if e["name"] == "process_name")
    assert process["args"]["name"] == "unit"
    threads = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert "smp" in threads and "governor.cpu" in threads


def test_timestamps_are_monotonic_and_microseconds(events):
    body = [e for e in events if e["ph"] != "M"]
    ts = [e["ts"] for e in body]
    assert ts == sorted(ts)
    begin = next(e for e in body if e["name"] == "balloon.cpu")
    assert begin["ts"] == pytest.approx(0.1)   # 100 ns = 0.1 us


def test_async_begin_end_balance_and_nesting(events):
    """Per async group: b/e balanced, never more ends than begins."""
    depths = {}
    for e in events:
        if e["ph"] not in ("b", "e"):
            continue
        key = (e["pid"], e["cat"], e["id"])
        depth = depths.get(key, 0)
        if e["ph"] == "b":
            depths[key] = depth + 1
        else:
            assert depth > 0, "end before begin in group {}".format(key)
            depths[key] = depth - 1
    assert depths and all(depth == 0 for depth in depths.values())


def test_child_spans_share_the_roots_async_id(events):
    balloon = next(e for e in events
                   if e["ph"] == "b" and e["name"] == "balloon.cpu")
    ipi = next(e for e in events
               if e["ph"] == "b" and e["name"] == "ipi.shootdown")
    assert ipi["id"] == balloon["id"]
    assert ipi["cat"] == balloon["cat"] == "balloon"


def test_unfinished_spans_are_closed_and_flagged(events):
    leak_end = next(e for e in events
                    if e["ph"] == "e" and e["name"] == "leak")
    assert leak_end["args"].get("unfinished") is True
    # Closed at trace end (sim.now == 600 ns == 0.6 us).
    assert leak_end["ts"] == pytest.approx(0.6)


def test_instants_and_counter_samples_exported(events):
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["name"] == "loan.grant"
    assert instant["s"] == "t"
    counter = next(e for e in events if e["ph"] == "C")
    assert counter["name"] == "opp.cpu"
    assert counter["args"] == {"opp": 2}


def test_export_chrome_trace_writes_document(tmp_path):
    path = tmp_path / "trace.json"
    count = export_chrome_trace([_session_with_activity()], str(path))
    document = json.loads(path.read_text())
    assert len(document["traceEvents"]) == count > 0
    assert document["displayTimeUnit"] == "ns"
    assert document["otherData"]["sessions"] == ["unit"]


# -- the streamed writer: json.dump's bytes, one root lookup per span ---------------


def _us(t_ns):
    """Chrome trace timestamps are microseconds; keep ns resolution."""
    return t_ns / 1000.0


def reference_trace_events(sessions):
    """The ``traceEvents`` list as event dicts: the writer's reference.

    One dict per event, built the plain way; ``json.dumps`` of its
    document is what the written file must hold.
    """
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
                end_t = trace_end
                end_args["unfinished"] = True
            end = {
                "ph": "e", "cat": cat, "id": root.id, "name": span.name,
                "pid": pid, "tid": tid, "ts": _us(end_t), "args": end_args,
            }
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


def reference_document(sessions):
    """The whole trace document the file must hold, from the reference."""
    return {
        "traceEvents": reference_trace_events(sessions),
        "displayTimeUnit": "ns",
        "otherData": {"generator": "repro.obs",
                      "sessions": [obs.label for obs in sessions]},
    }


def _root_of(span, by_id):
    """Reference async root: follow the parent links to the top."""
    seen = set()
    while span.parent_id is not None and span.parent_id not in seen:
        seen.add(span.id)
        parent = by_id.get(span.parent_id)
        if parent is None:
            break
        span = parent
    return span


def _busy_session(label, balloons):
    """``balloons`` three-deep span trees, plus instants and counter samples.

    Each balloon parents a phase span, which parents an
    ``ipi.shootdown`` closed one event later; every fifth balloon never
    closes, so the exporter ends it at trace end as unfinished.
    """
    sim = Simulator(0)
    obs = Obs(sim, label=label).install()
    tracer = obs.tracer

    def balloon(i):
        outer = tracer.begin("balloon.cpu", cat="balloon", track="smp", app=i)
        phase = tracer.begin("balloon.phase", parent=outer, phase="drain")
        ipi = tracer.begin("ipi.shootdown", parent=phase, core=i % 2)
        tracer.instant("loan.grant", cat="loan", track="smp", app=i)
        tracer.end(phase)
        tracer.sample("opp.cpu", track="governor.cpu", opp=i % 4, w=i / 3)
        sim.call_later(50, tracer.end, ipi)
        if i % 5:
            sim.call_later(120, tracer.end, outer)

    for i in range(balloons):
        sim.at(100 * i, balloon, i)
    sim.run()
    return obs


_WRITER_CASES = {
    # two sessions, one label non-ASCII, > TRACE_CHUNK events in all
    "chunks": lambda: [_busy_session("node-a", 300),
                       _busy_session("nœud-b", 300)],
    "empty": lambda: [],
    # nested (ipi.shootdown) and unfinished ("leak") spans
    "spans": lambda: [_session_with_activity()],
}


@pytest.mark.parametrize("case", sorted(_WRITER_CASES))
def test_streamed_trace_matches_json_dumps_and_roots(tmp_path, case):
    sessions = _WRITER_CASES[case]()
    document = reference_document(sessions)
    events = document["traceEvents"]
    path = tmp_path / "trace.json"
    assert export_chrome_trace(sessions, str(path)) == len(events)
    expected = json.dumps(document)
    assert path.read_text() == expected
    # the writer before the C encoder: json.dump to a handle (Python one)
    old = io.StringIO()
    json.dump(document, old)
    assert old.getvalue() == expected
    # the public event list is the written texts, parsed
    assert chrome_trace_events(sessions) == json.loads(json.dumps(events))
    if case == "chunks":
        assert len(events) > exporters.TRACE_CHUNK

    # every b/e id is the root the parent-chain walk finds: begins in
    # span begin order, ends by (end time, children before parents)
    for pid, obs in enumerate(sessions, start=1):
        spans = obs.tracer.spans
        by_id = {span.id: span for span in spans}
        roots = [_root_of(span, by_id).id for span in spans]
        begins = [(e["name"], e["id"]) for e in events
                  if e["pid"] == pid and e["ph"] == "b"]
        assert begins == [(s.name, r) for s, r in zip(spans, roots)]
        closing = sorted(range(len(spans)), key=lambda i: (
            obs.sim.now if spans[i].end is None else spans[i].end, -i))
        ends = [(e["name"], e["id"]) for e in events
                if e["pid"] == pid and e["ph"] == "e"]
        assert ends == [(spans[i].name, roots[i]) for i in closing]
        assert len(set(roots)) < len(spans)      # some spans do nest


def test_unencodable_args_raise_before_the_trace_exists(tmp_path):
    """Every args dict is encoded before the file is opened, so an args
    value json cannot encode leaves no partial trace behind."""
    obs = _session_with_activity()
    obs.tracer.instant("bad", track="smp", payload=object())
    path = tmp_path / "trace.json"
    with pytest.raises(TypeError):
        export_chrome_trace([obs], str(path))
    assert not path.exists()


def test_the_export_holds_no_record_per_event(tmp_path):
    """The export sorts key columns, not one tuple per event: what it
    allocates at its peak stays under 120 bytes per event (a tuple per
    event took ~200)."""
    sessions = [_busy_session("a", 3000), _busy_session("b", 3000)]
    path = str(tmp_path / "trace.json")
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        count = export_chrome_trace(sessions, path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert count == 48006
    assert peak / count <= 120


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_streamed_trace_chunk_boundaries(tmp_path, monkeypatch, chunk):
    """Any chunk size, even or ragged against the count, writes the same."""
    sessions = [_session_with_activity(), _busy_session("b", 3)]
    expected = json.dumps(reference_document(sessions))
    monkeypatch.setattr(exporters, "TRACE_CHUNK", chunk)
    path = tmp_path / "trace.json"
    export_chrome_trace(sessions, str(path))
    assert path.read_text() == expected


# -- random sessions against the reference -----------------------------------------

#: names, tracks, categories and labels: quotes, backslashes, control and
#: non-ASCII characters, % signs (the writer's heads are format strings)
#: and the empty string (which falls back to a default name)
_TEXT = st.sampled_from(["", "a", "b", 'q"uote', "back\\slash", "tab\there",
                         "bell\x07", "nœud", "電力", "\U0001f50b", "50%",
                         "%s%d"])
#: args values that dict equality or hashing would merge: 1, 1.0 and True
#: are one dict key, and so are 0.0 and -0.0; tuples and nested dicts
#: carry them too
_VALUE = st.sampled_from([1, 1.0, True, None, "1", 0.0, -0.0, 2.5,
                          (1, 1.0), (True, "1"), {"n": 1}, {"n": True},
                          {"n": {"m": 1.0}}])
_ARGS = st.dictionaries(st.sampled_from(["a", "b", 'k"', "é"]), _VALUE,
                        max_size=3)
#: few distinct times, so spans, instants and samples tie often, within a
#: session and across sessions
_TIME = st.sampled_from([0, 1, 7, 1500, 250000])
_OP = st.one_of(
    # begin: a span; parent is an index into the spans so far, else a root
    st.tuples(st.just("begin"), _TIME, _TEXT, _TEXT, _TEXT, _ARGS,
              st.integers(-1, 6)),
    # end: close the span at this index (no-op when out of range or
    # closed), merging more args into it
    st.tuples(st.just("end"), _TIME, st.integers(0, 6), _ARGS),
    st.tuples(st.just("instant"), _TIME, _TEXT, _TEXT, _TEXT, _ARGS),
    st.tuples(st.just("sample"), _TIME, _TEXT, _TEXT, _ARGS),
)
#: per session: label, ops, end time, numpy clock (np.int64 times make
#: every ts a numpy float, whose repr is "np.float64(...)")
_SESSION = st.tuples(_TEXT, st.lists(_OP, max_size=10), _TIME,
                     st.booleans())


def _scripted_session(label, ops, end, numpy_clock):
    """One session built by replaying ``ops`` on a hand-set clock."""
    clock = np.int64 if numpy_clock else int
    sim = SimpleNamespace(now=clock(0), obs=None)
    obs = Obs(sim, label=label).install()
    tracer = obs.tracer
    spans = []
    for op in ops:
        sim.now = clock(op[1])
        if op[0] == "begin":
            _kind, _t, name, cat, track, args, parent = op
            spans.append(tracer.begin(
                name, cat=cat, track=track,
                parent=spans[parent] if 0 <= parent < len(spans) else None,
                **args))
        elif op[0] == "end":
            _kind, _t, index, args = op
            if index < len(spans):
                tracer.end(spans[index], **args)
        elif op[0] == "instant":
            _kind, _t, name, cat, track, args = op
            tracer.instant(name, cat=cat, track=track, **args)
        else:
            _kind, _t, name, track, values = op
            tracer.sample(name, track=track, **values)
    sim.now = clock(end)
    return obs


#: two nested spans, an instant and a sample, all at t=7: every session
#: that replays it has the same (time, rank, order) keys
_TIED = [("begin", 7, "s", "c", "t", {}, -1),
         ("begin", 7, "u", "c", "t", {}, 0),
         ("end", 7, 1, {}), ("end", 7, 0, {}),
         ("instant", 7, "i", "c", "t", {}), ("sample", 7, "n", "t", {})]


@given(st.lists(_SESSION, max_size=3))
# an empty session between two non-empty ones
@example([("a", [("begin", 1, "s", "", "", {}, -1),
                 ("instant", 1, "i", "", "", {})], 7, False),
          ("", [], 0, False),
          ("b", [("sample", 1, "n", "", {}),
                 ("begin", 1, "s", "", "", {}, -1)], 7, True)])
# every key ties across two sessions: session order alone decides
@example([("x", _TIED, 7, False), ("y", _TIED, 7, True)])
# an unclosed span's end (the session's now) ties with a closed span's end
@example([("", [("begin", 1, "open", "", "", {}, -1),
                ("begin", 1, "shut", "", "", {}, -1),
                ("end", 7, 1, {})], 7, False)])
# one stream's times run backwards: nothing is assumed time-sorted
@example([("", [("begin", 1500, "s", "", "", {}, -1),
                ("begin", 7, "u", "", "", {}, -1),
                ("end", 1, 1, {}), ("end", 0, 0, {}),
                ("instant", 250000, "i", "", "", {}),
                ("instant", 1, "i", "", "", {}),
                ("sample", 7, "n", "", {}), ("sample", 0, "n", "", {})],
           1, False)])
@example([
    # an instant and a sample tie on (time, rank, order): insertion order
    # puts the instant first, the event texts would not ("C" < "i")
    ("", [("instant", 7, "z", "", "t", {}), ("sample", 7, "a", "t", {})],
     7, False),
    # args equal as dicts, different as JSON; a numpy-clock session
    ("n", [("instant", 1, "i", "c", "", {"a": 1}),
           ("instant", 1, "i", "c", "", {"a": 1.0}),
           ("instant", 1, "i", "c", "", {"a": True}),
           ("begin", 1500, "s", "", "", {"a": -0.0}, -1),
           ("begin", 1500, "s", "", "", {"a": 0.0}, 0)], 250000, True),
])
@settings(max_examples=150, deadline=None)
def test_random_sessions_write_the_reference_bytes(scripts):
    sessions = [_scripted_session(*script) for script in scripts]
    document = reference_document(sessions)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        count = export_chrome_trace(sessions, path)
        with open(path) as handle:
            written = handle.read()
    assert written == json.dumps(document)
    assert count == len(document["traceEvents"])
    assert chrome_trace_events(sessions) == json.loads(
        json.dumps(document["traceEvents"]))


def test_metrics_snapshot_merges_sessions(tmp_path):
    a, b = _session_with_activity(), _session_with_activity()
    snap = metrics_snapshot([a, b])
    assert len(snap["sessions"]) == 2
    assert snap["merged"]["counters"]["smp.balloons"] == 2
    assert snap["merged"]["histograms"]["smp.balloon_ns"]["count"] == 2
    path = tmp_path / "metrics.json"
    export_metrics([a, b], str(path))
    assert json.loads(path.read_text())["merged"] == snap["merged"]
    table = format_metrics_table(snap)
    assert "smp.balloons" in table and "histogram" in table


def test_format_metrics_table_empty():
    assert "no metrics" in format_metrics_table(
        {"merged": {"counters": {}, "gauges": {}, "histograms": {}}})


def test_metrics_snapshot_counts_unfinished_spans():
    a, b = _session_with_activity(), _session_with_activity()
    snap = metrics_snapshot([a, b])
    # each hand-built session leaks exactly one span ("leak")
    assert [s["unfinished_spans"] for s in snap["sessions"]] == [1, 1]
    assert snap["unfinished_spans"] == 2


def test_timeline_jsonl_dump(tmp_path):
    sim = Simulator(0)
    obs = Obs(sim, label="tl", timeline=Timeline()).install()
    bare = Obs(Simulator(0), label="bare").install()   # no timeline: skipped
    for i in range(5000):
        obs.timeline.record("power.w", i * 100, float(i), node="n0")
    obs.timeline.record("users", 50, 7.0)
    lines = timeline_jsonl_lines([obs, bare])
    docs = [json.loads(line) for line in lines]
    assert [d["series"] for d in docs] == ["power.w", "users"]
    power = docs[0]
    assert power["session"] == "tl"
    assert power["labels"] == {"node": "n0"}
    # every point is kept, first to last
    assert power["points"] == [[i * 100, float(i)] for i in range(5000)]
    assert power["dropped"] == 0
    assert power["disordered"] == 0
    assert docs[1]["disordered"] == 0
    path = tmp_path / "series.jsonl"
    assert export_timeline_jsonl([obs, bare], str(path)) == 2
    assert path.read_text().count("\n") == 2


def test_timeline_jsonl_reports_disordered_appends():
    obs = Obs(Simulator(0), label="tl", timeline=Timeline()).install()
    obs.timeline.record("s", 100, 1.0)
    obs.timeline.record("s", 40, 2.0)    # out of order: kept, but counted
    doc = json.loads(timeline_jsonl_lines([obs])[0])
    assert doc["disordered"] == 1
    assert doc["points"] == [[100, 1.0], [40, 2.0]]


# -- the differential promise -------------------------------------------------------


def _mixed_fingerprint(obs_mode):
    """Run the mixed fault-campaign workload; obs_mode None = no session."""
    work = build_workload("mixed", 0)
    obs = None
    if obs_mode is not None:
        obs = Obs(work.platform.sim, tracing=obs_mode).install()
        obs.bind_kernel(work.kernel)
    work.platform.sim.run(until=work.horizon_ns)
    return fingerprint(work.platform, work.kernel), obs


@pytest.fixture(scope="module")
def differential():
    baseline, _ = _mixed_fingerprint(None)
    silent, _ = _mixed_fingerprint(False)
    traced, obs = _mixed_fingerprint(True)
    return baseline, silent, traced, obs


def test_installed_but_disabled_tracer_is_bit_identical(differential):
    baseline, silent, _traced, _obs = differential
    assert silent == baseline


def test_enabled_tracer_is_bit_identical_too(differential):
    """Tracing is read-only: even *enabled* it must not perturb the run."""
    baseline, _silent, traced, _obs = differential
    assert traced == baseline


def test_enabled_tracer_actually_recorded_the_run(differential):
    _baseline, _silent, _traced, obs = differential
    assert len(obs.tracer.spans) > 0
    assert obs.metrics.counter("smp.balloons").value > 0
    events = chrome_trace_events([obs])
    json.dumps(events)
    assert any(e["ph"] == "b" and e["name"] == "ipi.shootdown"
               for e in events)
