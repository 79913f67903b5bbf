"""Unit tests for the two execution paths, the cost model, and auto selection.

The full-simulation byte-identity proof across both paths lives in
``tests/par/test_backend_matrix.py``; these tests pin the mechanics with
the tiny spawn-safe cells from :mod:`repro.par.testing`.
"""

import json
import os

import pytest

from repro.par import (
    CostModel,
    ParallelRunner,
    ResultCache,
    choose_backend,
    work_list,
)
from repro.par.cost import COST_FILE
from repro.par.executors import SPAWN_BOOT_S, run_inline, run_spawn

BACKENDS = ["inline", "spawn"]


def _square_items(n, offset=7):
    return work_list("demo", "repro.par.testing:square_cell",
                     [(seed, {"offset": offset}) for seed in range(n)])


def _events(backend, specs):
    """Drive one execution path's generator directly."""
    if backend == "spawn":
        return list(run_spawn(specs, jobs=2))
    return list(run_inline(specs))


# ------------------------------------------------------------ the two paths

@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_equals_serial(backend, force_backend):
    items = _square_items(6)
    serial = ParallelRunner(jobs=1).run(items)
    force_backend(backend)
    runner = ParallelRunner(jobs=2)
    assert runner.run(items) == serial
    assert runner.stats.backend == backend
    assert runner.stats.executed == 6


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_streams_events(backend):
    specs = [item.spec() for item in _square_items(4)]
    events = _events(backend, specs)
    assert len(events) == 4
    assert all(event["ok"] for event in events)
    assert sorted(e["cell"]["index"] for e in events) == [0, 1, 2, 3]
    values = {e["cell"]["index"]: e["cell"]["payload"]["value"]
              for e in events}
    assert values == {i: i * i + 7 for i in range(4)}


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_reports_failures_as_events(backend):
    items = work_list("demo", "repro.par.testing:mixed_cell",
                      [(seed, {"boom_seeds": [1]}) for seed in range(3)])
    events = _events(backend, [item.spec() for item in items])
    failed = [e for e in events if not e["ok"]]
    assert len(failed) == 1
    assert failed[0]["index"] == 1
    assert "boom (seed=1)" in failed[0]["error"]
    assert len([e for e in events if e["ok"]]) == 2


def test_executors_run_nothing_on_empty_lists():
    for backend in BACKENDS:
        assert _events(backend, []) == []


# -------------------------------------------------------------- cost model

def test_cost_model_ewma_and_estimate():
    model = CostModel()
    assert model.estimate("faults") is None
    model.observe("faults", 2.0)
    assert model.estimate("faults") == 2.0
    model.observe("faults", 4.0)
    assert 2.0 < model.estimate("faults") < 4.0
    assert model.snapshot()["faults"]["count"] == 2


def test_cost_model_round_trips_through_its_file(tmp_path):
    path = str(tmp_path / COST_FILE)
    model = CostModel(path)
    model.observe("sweep", 1.5)
    model.save()
    assert json.load(open(path))["experiments"]["sweep"]["count"] == 1
    reloaded = CostModel(path)
    assert reloaded.estimate("sweep") == 1.5
    # torn file: start cold instead of crashing
    with open(path, "w") as handle:
        handle.write("{torn")
    assert CostModel(path).estimate("sweep") is None


def test_cost_file_respects_the_umask(tmp_path):
    """cost_model.json goes through the cache's atomic writer, so it is
    readable to every user of a shared cache directory, like the
    entries beside it."""
    old_umask = os.umask(0o022)
    try:
        model = CostModel(str(tmp_path / COST_FILE))
        model.observe("faults", 1.0)
        model.save()
        mode = os.stat(model.path).st_mode & 0o777
        assert mode == 0o644, oct(mode)
        assert os.listdir(str(tmp_path)) == [COST_FILE]   # no temp left
    finally:
        os.umask(old_umask)


def test_runner_persists_costs_beside_the_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    ParallelRunner(jobs=1, cache=cache).run(_square_items(3))
    doc = json.load(open(os.path.join(str(tmp_path), COST_FILE)))
    assert doc["experiments"]["demo"]["count"] == 3
    assert doc["experiments"]["demo"]["mean_s"] >= 0.0


# ----------------------------------------------------------- auto selection

def test_auto_is_inline_when_a_pool_cannot_help():
    assert choose_backend(10, jobs=1, cpu_count=8, est_cell_s=60) == "inline"
    assert choose_backend(10, jobs=8, cpu_count=1, est_cell_s=60) == "inline"
    assert choose_backend(1, jobs=8, cpu_count=8, est_cell_s=60) == "inline"
    assert choose_backend(0, jobs=8, cpu_count=8) == "inline"


def test_auto_is_spawn_only_when_the_saving_clears_the_boot_bill():
    # 28 cells x 0.25 s on 2 workers saves ~3.5 s against a ~2 s boot
    # bill: spawn.  The same cells at 10 ms save 0.14 s: inline.
    assert choose_backend(28, jobs=2, cpu_count=2,
                          est_cell_s=0.25) == "spawn"
    assert choose_backend(28, jobs=2, cpu_count=2,
                          est_cell_s=0.01) == "inline"
    # unknown cost on a multicore host: optimistic spawn (the run itself
    # records the estimate that informs the next decision)
    assert choose_backend(28, jobs=2, cpu_count=2,
                          est_cell_s=None) == "spawn"
    # the boundary scales with the worker count
    workers = 4
    cheap = SPAWN_BOOT_S * workers / (28 * (1 - 1 / workers)) * 0.9
    assert choose_backend(28, jobs=4, cpu_count=4,
                          est_cell_s=cheap) == "inline"


def test_auto_never_picks_thread():
    """The only answers are the two paths that exist."""
    for n, jobs, cores, est in ((100, 8, 8, 0.001), (2, 2, 2, 100.0)):
        assert choose_backend(n, jobs, cores, est) in ("inline", "spawn")


def test_runner_auto_resolves_per_run(tmp_path):
    """The runner picks inline when the cost model says cells are cheap;
    the stats record the path that ran."""
    cache = ResultCache(str(tmp_path))
    runner = ParallelRunner(jobs=2, cache=cache)
    runner.run(_square_items(4))
    assert runner.stats.backend in ("inline", "spawn")
    # second run has a measured (tiny) cost estimate: inline wherever the
    # first run landed
    second = ParallelRunner(jobs=2, cache=ResultCache(str(tmp_path)))
    second.run(_square_items(8, offset=9))
    assert second.stats.backend == "inline"
