"""The spawn-safe worker side of the parallel runner.

Workers are started with the ``spawn`` method — a fresh interpreter, no
inherited simulator state — so the protocol is deliberately narrow: one
primitive cell spec crosses the boundary at a time, the worker imports the
cell's runner by dotted name, boots its own :class:`Simulator` inside that
runner, and ships back a JSON-able payload.  Nothing live (simulators,
kernels, RNG registries) is ever pickled.

When the parent asks for metrics, the worker arms the process-global
observability runtime (``repro.obs.runtime``) exactly the way the CLI's
``--metrics`` flag does, then drains its sessions after every cell and
returns the merged snapshot alongside the result — that is how per-worker
``repro.obs`` metrics reach the parent's aggregate.
"""

import importlib
import sys
from time import perf_counter

from repro.obs import runtime as obs_runtime
from repro.obs.exporters import metrics_snapshot


class CellError(RuntimeError):
    """A cell's runner raised; carries the cell identity for triage."""


#: True only in a pool child whose :func:`worker_init` armed metrics.  An
#: in-process caller of :func:`run_shard` must not drain: that would
#: destroy sessions the CLI's ``--trace``/``--metrics`` export still needs
#: — so the drain keys off this flag, never off ``obs_runtime.is_active()``
#: (which is also true in an observing parent).
_drain_metrics = False


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


def run_shard(spec):
    """Run one cell spec; the pool's unit of dispatch.

    Returns ``{"cell": {...}, "metrics": merged-snapshot-or-None}``.  The
    metrics half is only populated in a pool child whose
    :func:`worker_init` armed metrics; the sessions are drained so the next
    cell this worker picks up starts from zero.  In-process callers always
    get ``metrics=None`` and their runtime is left untouched.
    """
    cell = run_cell(spec)
    metrics = None
    if _drain_metrics:
        drained = obs_runtime.drain_sessions()
        if drained:
            metrics = metrics_snapshot(drained)["merged"]
    return {"cell": cell, "metrics": metrics}


def worker_init(sys_path_entries, obs_metrics):
    """Pool initializer: make ``repro`` importable, optionally arm metrics.

    ``spawn`` children rebuild ``sys.path`` from the environment, which may
    lack the checkout the parent imported ``repro`` from (e.g. a plain
    ``PYTHONPATH=src`` run started from another directory) — so the parent
    passes its own entries along.
    """
    for entry in reversed(sys_path_entries):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if obs_metrics:
        global _drain_metrics
        obs_runtime.configure()
        _drain_metrics = True
