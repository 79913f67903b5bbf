"""The flight recorder: triggers, snapshot content, bounds."""

import json
from types import SimpleNamespace

from repro.check.checker import InvariantChecker
from repro.obs import explain, flight
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.flight import FlightRecorder, _jsonable
from repro.obs.runtime import ObsRun
from repro.obs.session import Obs
from repro.obs.timeline import Timeline
from repro.powercap.telemetry import TelemetryRing
from repro.sim.trace import EventTrace


class FakeSim:
    def __init__(self):
        self.now = 0
        self.obs = None
        self.faults = None
        self._ctx_tracer = None


class FakeKernel:
    """Just enough kernel for InvariantChecker._flag."""

    def __init__(self, sim):
        self.sim = sim


def make_session(label="test", rules=None, recorder=None):
    """A telemetry session watched by its own engine; ``recorder`` rides
    on the session (``obs.flight``) and snapshots it."""
    obs = Obs(FakeSim(), label=label, tracing=True, timeline=Timeline(),
              flight=recorder).install()
    engine = AlertEngine(rules if rules is not None else [])
    engine.watch(obs)
    if recorder is not None:
        recorder.sessions.append(obs)
    return obs, engine


class TestAlertTrigger:
    def test_fired_alert_snapshots(self):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0)
        run = ObsRun(tracing=True, telemetry=True, rules=[rule], flight=True)
        obs = run.install(FakeSim(), label="test")
        assert obs.flight is run.flight
        obs.sim.now = 50
        obs.timeline.record("w", 50, 2.0)
        recorder = run.flight
        assert len(recorder.dumps) == 1
        dump = recorder.dumps[0]
        assert dump["trigger"]["type"] == "alert"
        assert dump["trigger"]["rule"] == "hot"
        assert dump["alerts"][0]["rule"] == "hot"
        (session,) = dump["sessions"]
        assert session["label"] == "test"
        keys = {(s["name"], tuple(sorted(s["labels"].items())))
                for s in session["series"]}
        assert ("w", ()) in keys

    def test_no_recorder_no_effect(self):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0)
        obs, engine = make_session(rules=[rule])
        obs.timeline.record("w", 0, 2.0)     # must not raise
        assert len(engine.alerts) == 1


class TestViolationTrigger:
    def test_checker_flag_snapshots(self):
        run = ObsRun(flight=True)
        checker = InvariantChecker(FakeKernel(FakeSim()))
        run.install(checker.sim)
        checker.sim.now = 77
        checker._flag("balloon.exclusive", "smp", "cosched", "intruder")
        recorder = run.flight
        assert len(recorder.dumps) == 1
        trigger = recorder.dumps[0]["trigger"]
        assert trigger["type"] == "violation"
        assert trigger["invariant"] == "balloon.exclusive"
        assert trigger["t_ns"] == 77


class TestSnapshotBounds:
    def test_max_dumps_then_suppressed(self):
        recorder = FlightRecorder(max_dumps=2)
        for i in range(5):
            recorder.snapshot({"type": "test", "i": i})
        assert len(recorder.dumps) == 2
        assert recorder.suppressed == 3

    def test_series_tail_window(self):
        recorder = FlightRecorder(series_tail=3)
        obs, _ = make_session(recorder=recorder)
        for i in range(10):
            obs.timeline.record("w", i, float(i))
        dump = recorder.snapshot({"type": "test"})
        (series,) = dump["sessions"][0]["series"]
        assert series["points"] == [[7, 7.0], [8, 8.0], [9, 9.0]]

    def test_instants_tail_window(self):
        recorder = FlightRecorder(events_tail=2)
        obs, _ = make_session(recorder=recorder)
        for i in range(5):
            obs.tracer.instant("e{}".format(i), track="t")
        dump = recorder.snapshot({"type": "test"})
        names = [row[2] for row in dump["sessions"][0]["instants"]]
        assert names == ["e3", "e4"]

    def test_log_and_injection_tails(self):
        recorder = FlightRecorder(events_tail=3)
        obs, _ = make_session(recorder=recorder)
        unbounded, ring = EventTrace("smp"), EventTrace("gpu.sched", 4)
        for i in range(6):
            unbounded.log(i, "pick", task=i, seq=100 + i)
            ring.log(i, "unit", n=i)
        obs.kernel = SimpleNamespace(logs=lambda: [unbounded, ring])
        obs.sim.faults = SimpleNamespace(log=EventTrace("faults"))
        for i in range(6):
            obs.sim.faults.log.log(10 * i, "inject" if i % 2 else "arm",
                                   site="s{}".format(i))
        session = recorder.snapshot({"type": "test"})["sessions"][0]
        smp, gpu = session["logs"]["smp"], session["logs"]["gpu.sched"]
        assert smp["tail"] == [[i, "pick", {"task": i}] for i in (3, 4, 5)]
        assert (smp["retained"], smp["dropped"]) == (6, 0)
        assert gpu["tail"] == [[i, "unit", {"n": i}] for i in (3, 4, 5)]
        assert (gpu["retained"], gpu["dropped"]) == (4, 2)
        # injections come from the log's last three records, then filtered
        assert session["injections"] == [{"site": "s3", "t_ns": 30},
                                         {"site": "s5", "t_ns": 50}]


class TestActionRings:
    def test_note_ring_dedups_and_labels(self):
        recorder = FlightRecorder()
        ring = TelemetryRing()
        ring.record(10, "t0.web", 1.0, 2.0, "throttle", 0.25)
        recorder.note_ring(ring, "node00")
        recorder.note_ring(ring, "other-label")   # same object: ignored
        dump = recorder.snapshot({"type": "test"})
        (action,) = dump["actions"]
        assert action["session"] == "node00"
        assert action["node"] == "t0.web"
        assert action["action"] == "throttle"


class TestPersistence:
    def test_dump_files_and_manifest(self, tmp_path):
        out = tmp_path / "flight"
        recorder = FlightRecorder(out_dir=str(out), max_dumps=2)
        rule = AlertRule("hot", series="w", op=">", threshold=1.0)
        obs, _engine = make_session(rules=[rule], recorder=recorder)
        ring = TelemetryRing()
        recorder.note_ring(ring, "node00")
        for i in range(8):
            obs.sim.now = 100 * i
            obs.tracer.instant("tick", track="t", i=i)
            ring.record(obs.sim.now, "t0.web", 1.0, 0.25 * i, "throttle",
                        0.1 * i)
            obs.timeline.record("x", obs.sim.now, 0.3 * i, node="n0")
            obs.timeline.record("w", obs.sim.now, 0.2 * i)   # fires at 600
        recorder.snapshot({"type": "test", "i": 1})
        recorder.snapshot({"type": "test", "i": 2})   # suppressed
        assert recorder.flush() == 2
        names = sorted(p.name for p in out.iterdir())
        assert names == ["flight-000.json", "flight-001.json",
                         "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dumps"] == ["flight-000.json", "flight-001.json"]
        assert manifest["suppressed"] == 1
        assert recorder.dumps[0]["trigger"]["rule"] == "hot"
        assert recorder.dumps[0]["format"] == flight.FORMAT
        # each file is one compact line that loads back to the dump itself
        for name, dump in zip(manifest["dumps"], recorder.dumps):
            with open(out / name) as handle:
                assert json.load(handle) == dump
            text = (out / name).read_text()
            assert text == json.dumps(dump, sort_keys=True) + "\n"
        # the same dump in the old indented layout explains byte-identically
        # (same path, so the report's "source" matches too)
        path = str(out / "flight-000.json")
        compact = explain.render_json(explain.explain(explain.load(path)))
        with open(path, "w") as handle:
            json.dump(recorder.dumps[0], handle, indent=1, sort_keys=True)
            handle.write("\n")
        indented = explain.render_json(explain.explain(explain.load(path)))
        assert indented == compact
        assert json.loads(compact)["incidents"]

    def test_flush_without_dumps_writes_nothing(self, tmp_path):
        out = tmp_path / "flight"
        recorder = FlightRecorder(out_dir=str(out))
        assert recorder.flush() == 0
        assert not out.exists()


class TestJsonable:
    def test_primitives_pass_through(self):
        assert _jsonable({"a": [1, 2.5, "x", None, True]}) == {
            "a": [1, 2.5, "x", None, True]}

    def test_tuples_become_lists(self):
        assert _jsonable((1, (2, 3))) == [1, [2, 3]]

    def test_objects_become_type_names_not_reprs(self):
        class Widget:
            pass

        text = _jsonable(Widget())
        assert text == "<Widget>"        # no id()/address leakage
        assert json.dumps(_jsonable({"k": Widget()}))
