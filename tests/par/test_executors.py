"""Unit tests for the two execution paths and the choice between them.

The full-simulation byte-identity proof across both paths lives in
``tests/par/test_backend_matrix.py``; these tests pin the mechanics with
the tiny spawn-safe cells from :mod:`repro.par.testing`.
"""

import os

import pytest

from repro.par import ParallelRunner, choose_backend, work_list
from repro.par.executors import run_inline, run_spawn

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


# ----------------------------------------------------------- auto selection

def test_auto_is_inline_when_a_pool_cannot_help():
    assert choose_backend(10, jobs=1, cpu_count=8) == ("inline", 1)
    assert choose_backend(10, jobs=8, cpu_count=1) == ("inline", 1)
    assert choose_backend(1, jobs=8, cpu_count=8) == ("inline", 1)
    assert choose_backend(0, jobs=8, cpu_count=8) == ("inline", 1)


def test_auto_is_spawn_whenever_a_pool_can_overlap_cells():
    """More than one core, job and cell is the whole rule; the pool gets
    the fewest of the three."""
    assert choose_backend(2, jobs=2, cpu_count=2) == ("spawn", 2)
    assert choose_backend(28, jobs=8, cpu_count=2) == ("spawn", 2)
    assert choose_backend(28, jobs=2, cpu_count=4) == ("spawn", 2)
    assert choose_backend(3, jobs=8, cpu_count=4) == ("spawn", 3)


def test_auto_never_picks_thread():
    """The only answers are the two paths that exist."""
    for n, jobs, cores in ((100, 8, 8), (2, 2, 2), (1, 1, 1)):
        assert choose_backend(n, jobs, cores)[0] in ("inline", "spawn")


def test_a_pool_has_no_more_workers_than_cores(monkeypatch):
    """A library ``ParallelRunner(jobs=4)`` on a 2-core host opens a pool
    of 2: only the CLI clamps ``--jobs`` to the cores itself.  The pool
    is recorded, and run on threads, through a patched executor class."""
    import concurrent.futures

    opened = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **_spawn_options):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    runner = ParallelRunner(jobs=4)
    payloads = runner.run(_square_items(4))
    assert [p["value"] for p in payloads] == [i * i + 7 for i in range(4)]
    assert runner.stats.backend == "spawn"
    assert opened == [2]
