"""The flight recorder: triggers, snapshot content, bounds."""

import json
from types import SimpleNamespace

import pytest

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


def _returned_dumps(recorder):
    """The list of dumps ``recorder.snapshot`` returns from now on, in
    order, whoever calls it (a trigger site drops the return value)."""
    returned = []
    snapshot = recorder.snapshot

    def keep(trigger):
        dump = snapshot(trigger)
        if dump is not None:
            returned.append(dump)
        return dump

    recorder.snapshot = keep
    return returned


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
        obs.bind_kernel(_Kernel(unbounded, ring))
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
        returned = _returned_dumps(recorder)
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
        assert manifest["triggers"] == [dump["trigger"] for dump in returned]
        assert returned[0]["trigger"]["rule"] == "hot"
        assert returned[0]["format"] == flight.FORMAT
        # each file is one compact line that loads back to the dump itself
        for name, dump in zip(manifest["dumps"], returned):
            with open(out / name) as handle:
                assert json.load(handle) == dump
            text = (out / name).read_text()
            assert text == json.dumps(dump, sort_keys=True) + "\n"
        # the same dump in the old indented layout explains byte-identically
        # (same path, so the report's "source" matches too)
        path = str(out / "flight-000.json")
        compact = explain.render_json(explain.explain(explain.load(path)))
        with open(path, "w") as handle:
            json.dump(returned[0], handle, indent=1, sort_keys=True)
            handle.write("\n")
        indented = explain.render_json(explain.explain(explain.load(path)))
        assert indented == compact
        assert json.loads(compact)["incidents"]

    def test_flush_without_dumps_writes_nothing(self, tmp_path):
        out = tmp_path / "flight"
        recorder = FlightRecorder(out_dir=str(out))
        assert recorder.flush() == 0
        assert not out.exists()


class _Kernel:
    """The one thing a snapshot reads from a kernel: its logs."""

    def __init__(self, *logs):
        self._logs = list(logs)

    def logs(self):
        return list(self._logs)


def _log(name, capacity, *records):
    log = EventTrace(name, capacity)
    for t, kind, payload in records:
        log.log(t, kind, **payload)
    return log


def _world(label, recorder):
    """A session with every source a snapshot reads, none of them empty.

    Series ``w`` holds 2 points of 3, the kernel's ``smp`` log is
    unbounded and its ``gpu.sched`` ring is full (2 of 2), and the fault
    log holds 2 records of 3.
    """
    obs, _ = make_session(label, recorder=recorder)
    obs.timeline = Timeline(capacity=3)
    obs.timeline.record("w", 10, 1.0)
    obs.timeline.record("w", 20, 2.0)
    obs.tracer.instant("boot", track="t", n=1)
    obs.bind_kernel(_Kernel(
        _log("smp", None, (5, "pick", {"task": 1, "seq": 9})),
        _log("gpu.sched", 2, (6, "unit", {"n": 1}), (7, "unit", {"n": 2}))))
    obs.sim.faults = SimpleNamespace(log=_log(
        "faults", 3, (8, "inject", {"site": "s0"}), (9, "arm", {})))
    obs.sim.now = 30
    return obs


def _swap_timeline(obs):
    """Same series, same counts, other values: only identity moves."""
    timeline = Timeline(capacity=3)
    for series in obs.timeline.all():
        for t, value in series.points():
            timeline.record(series.name, t, value + 1.0,
                            **dict(series.labels))
    obs.timeline = timeline


def _swap_kernel(obs):
    """Logs of the same names and counts, other records."""
    obs.bind_kernel(_Kernel(*(
        _log(log.name, log.capacity,
             *((t + 1, kind, payload) for t, kind, payload in log))
        for log in obs.kernel.logs())))


def _swap_faults(obs):
    log = obs.sim.faults.log
    obs.sim.faults = SimpleNamespace(log=_log(
        log.name, log.capacity,
        *((t, kind, dict(payload, site="other"))
          for t, kind, payload in log)))


def _fill_series(obs):
    obs.timeline.record("w", 25, 2.5)


def _fill_faults(obs):
    obs.sim.faults.log.log(9, "arm")


def _unbind_kernel(obs):
    # what a session that never bound a kernel holds
    obs.kernel, obs.kernel_logs = None, []


#: name -> (prepare before the first dump or None, the one change)
_CHANGES = {
    "series append": (None, lambda obs: obs.timeline.record("w", 30, 3.0)),
    # the ring is full: len stays 3, only dropped moves
    "full series append": (
        _fill_series, lambda obs: obs.timeline.record("w", 30, 3.0)),
    "disordered append": (
        None, lambda obs: obs.timeline.record("w", 15, 9.0)),
    # no append moves it alone; the stamp still covers what is read
    "disordered count": (
        None, lambda obs: setattr(obs.timeline.series("w"), "disordered", 1)),
    "new series": (None, lambda obs: obs.timeline.record("x", 30, 1.0)),
    "tracer instant": (None, lambda obs: obs.tracer.instant("tick", n=2)),
    "kernel log record": (
        None, lambda obs: obs.kernel.logs()[0].log(30, "pick", task=2)),
    # the gpu ring is full: only its dropped moves
    "full kernel ring record": (
        None, lambda obs: obs.kernel.logs()[1].log(30, "unit", n=3)),
    "fault injection": (
        None, lambda obs: obs.sim.faults.log.log(30, "inject", site="s1")),
    "full fault ring injection": (
        _fill_faults,
        lambda obs: obs.sim.faults.log.log(30, "inject", site="s1")),
    "sim.now advances": (None, lambda obs: setattr(obs.sim, "now", 40)),
    "kernel bound late": (
        _unbind_kernel,
        lambda obs: obs.bind_kernel(_Kernel(_log("smp", None)))),
    "label renamed": (None, lambda obs: setattr(obs, "label", "a2")),
    "timeline swapped": (None, _swap_timeline),
    "kernel swapped": (None, _swap_kernel),
    "fault plan swapped": (None, _swap_faults),
}


class TestSessionReuse:
    """Unchanged sessions are reused; a changed one is never served stale."""

    @staticmethod
    def _assert_files_are_the_dumps(recorder, dumps):
        assert len(recorder.paths) == len(dumps)
        for path, dump in zip(recorder.paths, dumps):
            with open(path) as handle:
                assert handle.read() == json.dumps(dump, sort_keys=True) + "\n"

    @pytest.mark.parametrize("change", sorted(_CHANGES))
    def test_a_change_rebuilds_only_its_session(self, tmp_path, change):
        prepare, apply = _CHANGES[change]
        recorder = FlightRecorder(out_dir=str(tmp_path), series_tail=2,
                                  events_tail=2)
        changing = _world("a", recorder)
        _world("b", recorder)              # never changes
        if prepare is not None:
            prepare(changing)
        dumps = [recorder.snapshot({"type": "test", "i": 1})]
        first = dumps[0]["sessions"]
        apply(changing)
        fresh = recorder._session_snapshot(changing)
        dumps.append(recorder.snapshot({"type": "test", "i": 2}))
        second = dumps[1]["sessions"]
        assert second[0] is not first[0]
        assert second[0] == fresh != first[0]
        assert second[1] is first[1]
        self._assert_files_are_the_dumps(recorder, dumps)

    def test_nothing_changed_shares_every_session(self, tmp_path):
        recorder = FlightRecorder(out_dir=str(tmp_path))
        sessions = [_world("a", recorder), _world("b", recorder)]
        first = recorder.snapshot({"type": "test", "i": 1})
        second = recorder.snapshot({"type": "test", "i": 2})
        assert all(a is b for a, b in zip(first["sessions"],
                                          second["sessions"]))
        assert second["sessions"] == [recorder._session_snapshot(obs)
                                      for obs in sessions]
        self._assert_files_are_the_dumps(recorder, [first, second])
        # and an in-memory recorder keeps the same dumps
        memory = FlightRecorder(sessions=sessions)
        memory.snapshot({"type": "test", "i": 1})
        memory.snapshot({"type": "test", "i": 2})
        assert memory.dumps == [first, second]

    def test_a_writing_recorder_keeps_files_and_a_memory_one_dicts(
            self, tmp_path):
        writing = FlightRecorder(out_dir=str(tmp_path))
        sessions = [_world("a", writing), _world("b", writing)]
        memory = FlightRecorder(sessions=sessions)
        for i in range(3):
            sessions[0].timeline.record("w", 30 + i, float(i))
            trigger = {"type": "test", "i": i}
            assert writing.snapshot(trigger) == memory.snapshot(trigger)
        assert writing.dumps == [] and memory.paths == []
        assert len(writing.paths) == len(memory.dumps) == 3
        assert writing.triggers == memory.triggers == [
            {"type": "test", "i": i} for i in range(3)]
        # the files hold the bytes the in-memory dumps encode to
        self._assert_files_are_the_dumps(writing, memory.dumps)
        assert writing.flush() == memory.flush() == 3


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
