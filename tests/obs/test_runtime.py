"""The observed-run scope: ``ObsRun``, ``observe`` and ``install``.

Sessions, the alert engine, the flight recorder and label counts belong to
one :class:`~repro.obs.runtime.ObsRun`; ``runtime.current`` is the only
module-level state, and only ``observe`` sets it.  While a run is current,
``observe`` defers the collector's full collections; the tests below pin
thresholds, not collection counts, which vary across CPython versions.
"""

import ast
import gc
import inspect

import pytest

from repro.experiments import __main__ as cli
from repro.experiments import driver
from repro.obs import runtime
from repro.obs.alerts import AlertRule, default_rules
from repro.obs.runtime import ObsRun, install, observe
from repro.par import testing as par_testing
from repro.par.worker import run_shard
from repro.sim.engine import Simulator

#: the largest threshold ``gc.set_threshold`` accepts (a C int)
DEFERRED = 2**31 - 1


@pytest.fixture
def thresholds():
    """The collector thresholds before the test; restored after it."""
    before = gc.get_threshold()
    yield before
    gc.set_threshold(*before)


def test_install_outside_a_run_is_a_no_op():
    assert runtime.current is None
    sim = Simulator()
    assert install(sim) is None
    assert sim.obs is None


def test_a_run_wires_its_engine_and_recorder_into_every_session(tmp_path):
    run = ObsRun(tracing=True, telemetry=True, flight_dir=str(tmp_path))
    first = run.install(Simulator())
    second = run.install(Simulator(), label="cap-loop")
    assert run.sessions == [first, second]
    assert (first.label, second.label) == ("run:1", "cap-loop")
    assert first.sim.obs is first and first.tracer.enabled
    assert first.flight is second.flight is run.flight
    assert run.flight.sessions is run.sessions      # read live, not copied
    assert [obs for obs, _timeline in run.alerts._watched] == run.sessions
    assert run.finalize() is run.alerts
    assert "obs.unfinished_spans" in first.timeline

    bare = ObsRun().install(Simulator())
    assert bare.timeline is None and bare.flight is None
    assert not bare.tracer.enabled
    assert ObsRun().finalize() is None


def test_finalize_twice_stamps_and_alerts_once():
    # a streaming rule on the stamped series fires on its second sample,
    # so a second stamp would also add an alert
    twice = AlertRule("stamped.twice", series="obs.unfinished_spans",
                      op=">=", threshold=0.0, for_samples=2)
    run = ObsRun(telemetry=True, rules=default_rules() + [twice])
    obs = run.install(Simulator())
    obs.sim.run(until=10_000_000)
    engine = run.finalize()
    alerts = list(engine.alerts)
    assert run.finalize() is engine
    assert obs.timeline.series("obs.unfinished_spans").points() == [
        (10_000_000, 0.0)]
    assert engine.alerts == alerts


def test_nested_runs_keep_their_own_sessions_and_labels():
    outer, inner = ObsRun(), ObsRun()
    with observe(outer):
        outer.label_prefix = "fig6"
        first = install(Simulator())
        with observe(inner) as run:
            assert run is inner and runtime.current is inner
            nested = [install(Simulator()), install(Simulator())]
        assert runtime.current is outer
        outer.label_prefix = "fig7"
        last = [install(Simulator()), install(Simulator())]
    assert runtime.current is None
    assert outer.sessions == [first] + last
    assert inner.sessions == nested
    # labels count per run and per prefix: "<prefix>:<n>"
    assert ([obs.label for obs in outer.sessions]
            == ["fig6:1", "fig7:1", "fig7:2"])
    assert [obs.label for obs in inner.sessions] == ["run:1", "run:2"]


def test_observe_none_hides_the_outer_run():
    with observe(ObsRun()) as run:
        with observe(None):
            assert install(Simulator()) is None
        assert install(Simulator()) is not None
    assert len(run.sessions) == 1


def test_a_raising_block_restores_the_outer_run():
    outer = ObsRun()
    with observe(outer):
        with pytest.raises(RuntimeError, match="boom"):
            with observe(ObsRun()):
                raise RuntimeError("boom")
        assert runtime.current is outer
    assert runtime.current is None


@pytest.mark.parametrize("custom", [None, (500, 7, 3)])
def test_a_run_defers_full_collections_and_restores_thresholds(
        thresholds, custom):
    if custom is not None:
        gc.set_threshold(*custom)
    before = gc.get_threshold()
    deferred = before[:2] + (DEFERRED,)     # young thresholds kept
    with observe(ObsRun()):
        assert gc.get_threshold() == deferred
    assert gc.get_threshold() == before
    with pytest.raises(RuntimeError, match="boom"):
        with observe(ObsRun()):
            assert gc.get_threshold() == deferred
            raise RuntimeError("boom")
    assert gc.get_threshold() == before


def test_observe_none_leaves_the_policy_alone(thresholds):
    with observe(None):
        assert gc.get_threshold() == thresholds
    assert gc.get_threshold() == thresholds


def test_nested_runs_defer_until_the_outermost_block_exits(thresholds):
    deferred = thresholds[:2] + (DEFERRED,)
    with observe(ObsRun()):
        with observe(ObsRun()):
            assert gc.get_threshold() == deferred
        assert gc.get_threshold() == deferred
        with observe(None):     # the outer run still pins the heap
            assert gc.get_threshold() == deferred
        assert gc.get_threshold() == deferred
    assert gc.get_threshold() == thresholds


def test_an_observed_worker_cell_runs_deferred_and_restores(
        thresholds, monkeypatch):
    seen = []
    sim_cell = par_testing.sim_cell
    monkeypatch.setattr(par_testing, "sim_cell", lambda seed, config: (
        seen.append(gc.get_threshold()) or sim_cell(seed, config)))
    spec = {"index": 0, "experiment": "sim", "seed": 1, "config": {},
            "runner": "repro.par.testing:sim_cell"}
    shard = run_shard(spec, observe=True)
    [registry] = shard["metrics"]
    assert registry.counters["par.testing.pings"].value > 0
    assert gc.get_threshold() == thresholds
    run_shard(spec, observe=False)
    assert seen == [thresholds[:2] + (DEFERRED,), thresholds]
    assert gc.get_threshold() == thresholds


def test_an_observed_cli_run_defers_without_a_gc_hook(
        thresholds, tmp_path, monkeypatch):
    seen = []
    fig7 = driver("fig7")
    result = fig7.result
    monkeypatch.setattr(fig7, "result", lambda args: (
        seen.append((gc.get_threshold(), list(gc.callbacks)))
        or result(args)))
    monkeypatch.chdir(tmp_path)
    callbacks = list(gc.callbacks)
    assert cli.main(["fig7", "--metrics", "m.json"]) == 0
    assert seen == [(thresholds[:2] + (DEFERRED,), callbacks)]
    assert gc.get_threshold() == thresholds
    assert gc.callbacks == callbacks


def test_current_is_the_only_module_state_and_only_observe_sets_it():
    tree = ast.parse(inspect.getsource(runtime))
    assigned = {target.id for node in tree.body
                if isinstance(node, ast.Assign)
                for target in node.targets}
    assert assigned == {"current"}
    declared = {(function.name, name)
                for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function)
                if isinstance(node, ast.Global)
                for name in node.names}
    assert declared == {("observe", "current")}


def _fig7_observed(tmp_path, name, capsys, monkeypatch):
    """``fig7 --trace --metrics`` in a fresh directory; (stdout, files)."""
    directory = tmp_path / name
    directory.mkdir()
    monkeypatch.chdir(directory)
    assert cli.main(["fig7", "--trace", "t.json", "--metrics", "m.json"]) == 0
    stdout = capsys.readouterr().out
    files = {path.name: path.read_bytes() for path in directory.iterdir()}
    return stdout, files


def test_two_observed_invocations_in_one_process_are_identical(
        tmp_path, capsys, monkeypatch):
    first = _fig7_observed(tmp_path, "a", capsys, monkeypatch)
    second = _fig7_observed(tmp_path, "b", capsys, monkeypatch)
    assert sorted(first[1]) == ["m.json", "t.json"]
    assert "trace: " in first[0] and "fig7:1" in first[1]["m.json"].decode()
    assert second == first
    assert runtime.current is None


def test_a_raising_subcommand_leaves_no_current_run(tmp_path, monkeypatch):
    def boom(args):
        assert runtime.current is not None
        raise RuntimeError("subcommand failed")

    monkeypatch.setattr(driver("fig7"), "result", boom)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(RuntimeError, match="subcommand failed"):
        cli.main(["fig7", "--metrics", "m.json"])
    assert runtime.current is None
