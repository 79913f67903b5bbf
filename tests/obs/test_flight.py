"""The flight recorder: triggers, snapshot content, bounds."""

import json
import os
from types import SimpleNamespace

import pytest

from repro.check.checker import InvariantChecker
from repro.experiments.faults_exp import build_workload
from repro.obs import explain, flight
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.flight import FlightRecorder, _jsonable
from repro.obs.runtime import ObsRun
from repro.obs.session import Obs
from repro.obs.timeline import Timeline
from repro.sim.clock import from_msec
from repro.sim.trace import EventTrace


class FakeSim:
    def __init__(self):
        self.now = 0
        self.obs = None
        self.faults = None


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


def _load(path):
    """The dump a recorder wrote to ``path``."""
    with open(path) as handle:
        return json.load(handle)


class TestAlertTrigger:
    def test_fired_alert_snapshots(self, tmp_path):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0)
        run = ObsRun(tracing=True, telemetry=True, rules=[rule],
                     flight_dir=str(tmp_path))
        obs = run.install(FakeSim(), label="test")
        assert obs.flight is run.flight
        obs.sim.now = 50
        obs.timeline.record("w", 50, 2.0)
        (path,) = run.flight.paths
        dump = _load(path)
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
    def test_checker_flag_snapshots(self, tmp_path):
        run = ObsRun(flight_dir=str(tmp_path))
        checker = InvariantChecker(FakeKernel(FakeSim()))
        run.install(checker.sim)
        checker.sim.now = 77
        checker._flag("balloon.exclusive", "smp", "cosched", "intruder")
        (path,) = run.flight.paths
        trigger = _load(path)["trigger"]
        assert trigger["type"] == "violation"
        assert trigger["invariant"] == "balloon.exclusive"
        assert trigger["t_ns"] == 77


class TestSnapshotBounds:
    def test_max_dumps_then_suppressed(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path), max_dumps=2)
        paths = [recorder.snapshot({"type": "test", "i": i})
                 for i in range(5)]
        assert paths == recorder.paths + [None] * 3
        assert sorted(os.listdir(tmp_path)) == ["flight-000.json",
                                                "flight-001.json"]
        assert recorder.suppressed == 3

    def test_series_tail_window(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path), series_tail=3)
        obs, _ = make_session(recorder=recorder)
        for i in range(10):
            obs.timeline.record("w", i, float(i))
        dump = _load(recorder.snapshot({"type": "test"}))
        (series,) = dump["sessions"][0]["series"]
        assert series["points"] == [[7, 7.0], [8, 8.0], [9, 9.0]]

    def test_instants_tail_window(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path), events_tail=2)
        obs, _ = make_session(recorder=recorder)
        for i in range(5):
            obs.tracer.instant("e{}".format(i), track="t")
        dump = _load(recorder.snapshot({"type": "test"}))
        names = [row[2] for row in dump["sessions"][0]["instants"]]
        assert names == ["e3", "e4"]

    def test_log_and_injection_tails(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path), events_tail=3)
        obs, _ = make_session(recorder=recorder)
        smp_log, gpu_log = EventTrace("smp"), EventTrace("gpu.sched")
        for i in range(6):
            smp_log.add((i, ("pick", "task", "seq"), i, 100 + i))
            gpu_log.add((i, ("unit", "n"), i))
        obs.bind_kernel(_Kernel(smp_log, gpu_log))
        obs.sim.faults = SimpleNamespace(log=EventTrace("faults"))
        for i in range(6):
            obs.sim.faults.log.add((10 * i, ("inject" if i % 2 else "arm",
                                             "site"), "s{}".format(i)))
        session = _load(recorder.snapshot({"type": "test"}))["sessions"][0]
        smp, gpu = session["logs"]["smp"], session["logs"]["gpu.sched"]
        assert smp["tail"] == [[i, "pick", {"task": i}] for i in (3, 4, 5)]
        assert (smp["retained"], smp["dropped"]) == (6, 0)
        assert gpu["tail"] == [[i, "unit", {"n": i}] for i in (3, 4, 5)]
        assert (gpu["retained"], gpu["dropped"]) == (6, 0)
        # injections come from the log's last three records, then filtered
        assert session["injections"] == [{"site": "s3", "t_ns": 30},
                                         {"site": "s5", "t_ns": 50}]


class TestActionRings:
    def test_actions_are_each_sessions_powercap_ring_tail(self, tmp_path):
        # the sessions are installed after their boots ran and carry no
        # recorder, so no site hands it a log: it reads each session's
        recorder = FlightRecorder(str(tmp_path), events_tail=8)
        decisions = {}
        for label, seed in (("node00", 0), ("bare", None), ("node01", 1)):
            if seed is None:          # no kernel, so no controller
                obs = Obs(FakeSim(), label=label).install()
            else:
                work = build_workload("powercap", seed)
                work.platform.sim.run(until=from_msec(300))
                obs = Obs(work.platform.sim, label=label).install()
                obs.bind_kernel(work.kernel)
                decisions[label] = list(work.kernel.powercap.log)
                assert len(decisions[label]) > recorder.events_tail
            assert obs.flight is None
            recorder.sessions.append(obs)
        dump = _load(recorder.snapshot({"type": "test"}))
        assert dump["actions"] == [
            dict(payload, t=t, session=label)
            for label in ("node00", "node01")
            for t, _kind, payload in decisions[label][-recorder.events_tail:]]


class TestPersistence:
    def test_dump_files_and_manifest(self, tmp_path):
        out = tmp_path / "flight"
        recorder = FlightRecorder(str(out), max_dumps=2)
        rule = AlertRule("hot", series="w", op=">", threshold=1.0)
        obs, _engine = make_session(rules=[rule], recorder=recorder)
        decisions = EventTrace("powercap")
        obs.bind_kernel(_Kernel(powercap_log=decisions))
        for i in range(8):
            obs.sim.now = 100 * i
            obs.tracer.instant("tick", track="t", i=i)
            decisions.add((obs.sim.now, _DECISION, "t0.web", 1.0, 0.25 * i,
                           "throttle", 0.1 * i))
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
        assert [os.path.basename(path) for path in recorder.paths] \
            == manifest["dumps"]
        assert manifest["suppressed"] == 1
        dumps = [_load(path) for path in recorder.paths]
        assert manifest["triggers"] == [dump["trigger"] for dump in dumps]
        assert dumps[0]["trigger"]["rule"] == "hot"
        assert dumps[0]["format"] == flight.FORMAT
        assert [(a["session"], a["t"]) for a in dumps[0]["actions"]] == [
            ("test", 100 * i) for i in range(7)]
        # each file is one compact line, the dump's canonical text
        for name in manifest["dumps"]:
            text = (out / name).read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        # the same dump in the old indented layout explains byte-identically
        # (same path, so the report's "source" matches too)
        path = str(out / "flight-000.json")
        compact = explain.render_json(explain.explain(explain.load(path)))
        with open(path, "w") as handle:
            json.dump(dumps[0], handle, indent=1, sort_keys=True)
            handle.write("\n")
        indented = explain.render_json(explain.explain(explain.load(path)))
        assert indented == compact
        assert json.loads(compact)["incidents"]

    def test_flush_without_dumps_writes_nothing(self, tmp_path):
        out = tmp_path / "flight"
        recorder = FlightRecorder(str(out))
        assert recorder.flush() == 0
        assert not out.exists()


#: the shape of a powercap controller's decision records
_DECISION = ("decision", "node", "measured_w", "budget_w", "action", "level")


class _Kernel:
    """What a snapshot reads from a kernel: its logs, and the decision
    log of its powercap controller (``powercap_log``), if it has one."""

    def __init__(self, *logs, powercap_log=None):
        self._logs = list(logs)
        self.powercap = (None if powercap_log is None
                         else SimpleNamespace(log=powercap_log))

    def logs(self):
        return list(self._logs)


def _log(name, *records):
    log = EventTrace(name)
    for t, kind, payload in records:
        log.add((t, (kind, *payload), *payload.values()))
    return log


def _world(label, recorder):
    """A session with every source a snapshot reads, none of them empty.

    Series ``w`` holds 2 points, the kernel has an ``smp`` and a
    ``gpu.sched`` log, and the fault log holds 2 records.
    """
    obs, _ = make_session(label, recorder=recorder)
    obs.timeline.record("w", 10, 1.0)
    obs.timeline.record("w", 20, 2.0)
    obs.tracer.instant("boot", track="t", n=1)
    obs.bind_kernel(_Kernel(
        _log("smp", (5, "pick", {"task": 1, "seq": 9})),
        _log("gpu.sched", (6, "unit", {"n": 1}), (7, "unit", {"n": 2}))))
    obs.sim.faults = SimpleNamespace(log=_log(
        "faults", (8, "inject", {"site": "s0"}), (9, "arm", {})))
    obs.sim.now = 30
    return obs


def _swap_timeline(obs):
    """Same series, same counts, other values: only identity moves."""
    timeline = Timeline()
    for series in obs.timeline.all():
        for t, value in series.points():
            timeline.record(series.name, t, value + 1.0,
                            **dict(series.labels))
    obs.timeline = timeline


def _swap_kernel(obs):
    """Logs of the same names and counts, other records."""
    obs.bind_kernel(_Kernel(*(
        _log(log.name, *((t + 1, kind, payload) for t, kind, payload in log))
        for log in obs.kernel.logs())))


def _swap_faults(obs):
    log = obs.sim.faults.log
    obs.sim.faults = SimpleNamespace(log=_log(
        log.name, *((t, kind, dict(payload, site="other"))
                    for t, kind, payload in log)))


def _fill_series(obs):
    obs.timeline.record("w", 25, 2.5)


def _unbind_kernel(obs):
    # what a session that never bound a kernel holds
    obs.kernel, obs.kernel_logs = None, []


#: name -> (prepare before the first dump or None, the one change)
_CHANGES = {
    "series append": (None, lambda obs: obs.timeline.record("w", 30, 3.0)),
    # past the dump's 2-point series tail: the tail keeps 2 points, and
    # only the series' len moves
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
        None,
        lambda obs: obs.kernel.logs()[0].add((30, ("pick", "task"), 2))),
    "fault injection": (
        None,
        lambda obs: obs.sim.faults.log.add((30, ("inject", "site"), "s1"))),
    "sim.now advances": (None, lambda obs: setattr(obs.sim, "now", 40)),
    "kernel bound late": (
        _unbind_kernel, lambda obs: obs.bind_kernel(_Kernel(_log("smp")))),
    "label renamed": (None, lambda obs: setattr(obs, "label", "a2")),
    "timeline swapped": (None, _swap_timeline),
    "kernel swapped": (None, _swap_kernel),
    "fault plan swapped": (None, _swap_faults),
}


class TestSessionReuse:
    """Unchanged sessions are reused; a changed one is never served stale."""

    @staticmethod
    def _texts(recorder, sessions):
        """The text the recorder keeps for each session, in order."""
        return [recorder._cache[obs][1] for obs in sessions]

    @staticmethod
    def _assert_files_hold(recorder, texts):
        """Each file is its dump's canonical text, with the last one's
        sessions written as ``texts``."""
        for path in recorder.paths:
            with open(path) as handle:
                text = handle.read()
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert '"sessions": [{}]'.format(", ".join(texts)) in text

    @pytest.mark.parametrize("change", sorted(_CHANGES))
    def test_a_change_rebuilds_only_its_session(self, tmp_path, change):
        prepare, apply = _CHANGES[change]
        recorder = FlightRecorder(str(tmp_path), series_tail=2,
                                  events_tail=2)
        sessions = [_world("a", recorder),
                    _world("b", recorder)]     # b never changes
        if prepare is not None:
            prepare(sessions[0])
        recorder.snapshot({"type": "test", "i": 1})
        first = self._texts(recorder, sessions)
        apply(sessions[0])
        fresh = json.dumps(recorder._session_snapshot(sessions[0]),
                           sort_keys=True)
        recorder.snapshot({"type": "test", "i": 2})
        second = self._texts(recorder, sessions)
        assert second[0] == fresh != first[0]
        assert second[1] is first[1]
        self._assert_files_hold(recorder, second)

    def test_nothing_changed_shares_every_session(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path))
        sessions = [_world("a", recorder), _world("b", recorder)]
        recorder.snapshot({"type": "test", "i": 1})
        first = self._texts(recorder, sessions)
        recorder.snapshot({"type": "test", "i": 2})
        second = self._texts(recorder, sessions)
        assert all(a is b for a, b in zip(first, second))
        assert second == [
            json.dumps(recorder._session_snapshot(obs), sort_keys=True)
            for obs in sessions]
        self._assert_files_hold(recorder, second)


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
