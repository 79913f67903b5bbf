"""The observed-run scope: ``ObsRun``, ``observe`` and ``install``.

Sessions, the alert engine, the flight recorder and label counts belong to
one :class:`~repro.obs.runtime.ObsRun`; ``runtime.current`` is the only
module-level state, and only ``observe`` sets it.
"""

import ast
import inspect

import pytest

from repro.experiments import __main__ as cli
from repro.obs import runtime
from repro.obs.runtime import ObsRun, install, observe
from repro.sim.engine import Simulator


def test_install_outside_a_run_is_a_no_op():
    assert runtime.current is None
    sim = Simulator()
    assert install(sim) is None
    assert sim.obs is None


def test_a_run_wires_its_engine_and_recorder_into_every_session():
    run = ObsRun(tracing=True, telemetry=True, flight=True)
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


def test_current_is_the_only_module_state_and_only_observe_sets_it():
    tree = ast.parse(inspect.getsource(runtime))
    assigned = {target.id for node in tree.body
                if isinstance(node, ast.Assign)
                for target in node.targets}
    assert assigned == {"TIMELINE_CAPACITY", "current"}
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
    def boom():
        assert runtime.current is not None
        raise RuntimeError("subcommand failed")

    monkeypatch.setitem(cli.EXPERIMENTS, "fig7", boom)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(RuntimeError, match="subcommand failed"):
        cli.main(["fig7", "--metrics", "m.json"])
    assert runtime.current is None
