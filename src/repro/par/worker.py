"""The spawn-safe worker side of the parallel runner.

Workers are started with the ``spawn`` method — a fresh interpreter, no
inherited simulator state — so the protocol is deliberately narrow: one
primitive cell spec crosses the boundary at a time, the worker imports the
cell's runner by dotted name, boots its own :class:`Simulator` inside that
runner, and ships back a JSON-able payload.  Nothing live (simulators,
kernels, RNG registries) is ever pickled.

When the parent observes, the worker runs each cell inside a fresh
metrics-only :class:`~repro.obs.runtime.ObsRun` and returns the cell's
metrics alongside the result: its sessions'
:class:`~repro.obs.metrics.MetricsRegistry` objects in boot order, which
pickle with their raw histogram samples.  The parent folds them into its
own run where a serial run would have recorded the cell, so its merged
metrics take the very ``merge_from`` calls a serial run makes.  The run
ends with the cell, so nothing carries over into the next cell the
worker picks up.
"""

import importlib
import sys
from time import perf_counter

from repro.obs import runtime as obs_runtime


class CellError(RuntimeError):
    """A cell's runner raised; carries the cell identity for triage."""


def resolve_runner(dotted):
    """``"package.module:func"`` -> the callable (imported in-process)."""
    module_name, _sep, func_name = dotted.partition(":")
    if not _sep or not module_name or not func_name:
        raise ValueError(
            "runner must be 'package.module:function', got {!r}".format(
                dotted))
    module = importlib.import_module(module_name)
    runner = getattr(module, func_name, None)
    if runner is None:
        raise ValueError("module {} has no attribute {!r}".format(
            module_name, func_name))
    return runner


def run_cell(spec):
    """Run one cell spec; returns ``{"index", "payload", "wall_s"}``."""
    runner = resolve_runner(spec["runner"])
    start = perf_counter()
    try:
        payload = runner(spec["seed"], spec["config"])
    except Exception as exc:
        raise CellError(
            "cell {index} ({experiment}, seed={seed}, config={config}) "
            "failed: {exc!r}".format(exc=exc, **spec)) from exc
    return {
        "index": spec["index"],
        "payload": payload,
        "wall_s": perf_counter() - start,
    }


def run_shard(spec, observe=False):
    """Run one cell spec; the pool's unit of dispatch.

    Returns ``{"cell": {...}, "metrics": registries-or-None}``.  With
    ``observe`` the cell runs inside a fresh metrics-only
    :class:`~repro.obs.runtime.ObsRun`, and ``metrics`` is that run's
    registries in boot order (None when the cell booted no simulator).
    """
    if not observe:
        return {"cell": run_cell(spec), "metrics": None}
    run = obs_runtime.ObsRun()
    with obs_runtime.observe(run):
        cell = run_cell(spec)
    return {"cell": cell, "metrics": run.registries or None}


def worker_init(sys_path_entries):
    """Pool initializer: make ``repro`` importable.

    ``spawn`` children rebuild ``sys.path`` from the environment, which may
    lack the checkout the parent imported ``repro`` from (e.g. a plain
    ``PYTHONPATH=src`` run started from another directory) — so the parent
    passes its own entries along.
    """
    for entry in reversed(sys_path_entries):
        if entry not in sys.path:
            sys.path.insert(0, entry)
