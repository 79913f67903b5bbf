"""Exporter tests: Chrome-trace JSON validity, nesting, bit-identity.

The differential test at the bottom is the layer's core promise: installing
an Obs session — tracing off *or on* — leaves the run bit-identical to one
without the layer (the tracer is read-only and draws no RNG).
"""

import io
import json

import pytest

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
                                    detached=True, core=1)
        tracer.instant("loan.grant", cat="loan", track="smp", app=1)
        sim.call_later(300, arrive)

    def arrive():
        tracer.end(state["ipi"])
        tracer.sample("opp.cpu", track="governor.cpu", opp=2)
        sim.call_later(200, finish)

    def finish():
        tracer.end(state["balloon"], reason="done")
        tracer.begin("leak", cat="balloon", track="smp", detached=True)

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

    Each balloon scopes a phase span that parents a detached
    ``ipi.shootdown`` closed one event later; every fifth balloon never
    closes, so the exporter ends it at trace end as unfinished.
    """
    sim = Simulator(0)
    obs = Obs(sim, label=label).install()
    tracer = obs.tracer

    def balloon(i):
        outer = tracer.begin("balloon.cpu", cat="balloon", track="smp", app=i)
        with tracer.span("balloon.phase", phase="drain"):
            ipi = tracer.begin("ipi.shootdown", detached=True, core=i % 2)
            tracer.instant("loan.grant", cat="loan", app=i)
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
    # nested, detached (ipi.shootdown) and unfinished ("leak") spans
    "spans": lambda: [_session_with_activity()],
}


@pytest.mark.parametrize("case", sorted(_WRITER_CASES))
def test_streamed_trace_matches_json_dumps_and_roots(tmp_path, case):
    sessions = _WRITER_CASES[case]()
    events = chrome_trace_events(sessions)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"generator": "repro.obs",
                      "sessions": [obs.label for obs in sessions]},
    }
    path = tmp_path / "trace.json"
    assert export_chrome_trace(sessions, str(path)) == len(events)
    expected = json.dumps(document)
    assert path.read_text() == expected
    # the writer this replaced: json.dump to a handle (Python encoder)
    old = io.StringIO()
    json.dump(document, old)
    assert old.getvalue() == expected
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


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_streamed_trace_chunk_boundaries(tmp_path, monkeypatch, chunk):
    """Any chunk size, even or ragged against the count, writes the same."""
    sessions = [_session_with_activity(), _busy_session("b", 3)]
    path = tmp_path / "trace.json"
    export_chrome_trace(sessions, str(path))
    expected = path.read_text()
    monkeypatch.setattr(exporters, "TRACE_CHUNK", chunk)
    export_chrome_trace(sessions, str(path))
    assert path.read_text() == expected


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
    # each hand-built session leaks exactly one detached span ("leak")
    assert [s["unfinished_spans"] for s in snap["sessions"]] == [1, 1]
    assert snap["unfinished_spans"] == 2


def test_timeline_jsonl_dump(tmp_path):
    sim = Simulator(0)
    obs = Obs(sim, label="tl", timeline=Timeline(capacity=2)).install()
    bare = Obs(Simulator(0), label="bare").install()   # no timeline: skipped
    for i in range(3):
        obs.timeline.record("power.w", i * 100, float(i), node="n0")
    obs.timeline.record("users", 50, 7.0)
    lines = timeline_jsonl_lines([obs, bare])
    docs = [json.loads(line) for line in lines]
    assert [d["series"] for d in docs] == ["power.w", "users"]
    power = docs[0]
    assert power["session"] == "tl"
    assert power["labels"] == {"node": "n0"}
    assert power["points"] == [[100, 1.0], [200, 2.0]]   # ring kept last 2
    assert power["dropped"] == 1
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
