"""The two ways the runner executes cells: inline, or a spawn pool.

Both are generators that turn a list of primitive cell specs (the wire
form from :meth:`repro.par.shard.WorkItem.spec`) into a *stream* of cell
events, yielded as cells finish rather than when the whole run drains.
The runner consumes the stream to persist completed cells immediately
(a late failure no longer discards finished work) and merges by
work-list index afterwards, so completion order never reaches the
output.

=============  ======================================================
``inline``     this process, in work-list order, zero overhead
``spawn``      a pool of spawn-started interpreters, one cell at a time
=============  ======================================================

Events are plain dicts:

* ``{"ok": True, "cell": {"index", "payload", "wall_s"}, "metrics": ...}``
  — one finished cell; ``metrics`` is a per-cell ``repro.obs`` snapshot
  from pool children (``None`` inline, where cells register with the
  parent's runtime directly);
* ``{"ok": False, "index": i, "error": "..."}`` — the cell's runner
  raised :class:`~repro.par.worker.CellError`; the message carries the
  cell identity.  Any *other* exception (a bad runner spec, a dead
  worker pool) is a programming error and propagates.

:func:`choose_backend` is the only thing that picks between them: inline
unless a real pool is possible (cores, jobs, and cells all > 1) *and* the
cost model's measured per-cell estimate projects a saving that clears the
spawn-boot bill.  That single comparison is the fix for BENCH_par.json's
parallel-slower-than-serial regression.
"""

import os
import sys

from repro.par.worker import CellError, run_cell, run_shard, worker_init

#: what one spawned worker's interpreter boot costs, dominated by the
#: ``import repro`` a fresh interpreter pays before its first cell
SPAWN_BOOT_S = 1.0


def choose_backend(n_cells, jobs, cpu_count=None, est_cell_s=None):
    """Pick ``"inline"`` or ``"spawn"`` from measured capacity.

    ``inline`` whenever a pool cannot help (one core, one job, one cell)
    or the cost model projects the spawn boots outweigh the parallel
    saving; ``spawn`` otherwise.  With no estimate yet the choice is
    optimistic (``spawn`` when a pool is possible) — the run itself then
    records the costs that inform the next decision.
    """
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    workers = min(jobs, max(1, cores), n_cells)
    if workers <= 1:
        return "inline"
    if est_cell_s is None:
        return "spawn"
    serial_s = est_cell_s * n_cells
    saved_s = serial_s - serial_s / workers
    if saved_s > SPAWN_BOOT_S * workers:
        return "spawn"
    return "inline"


def run_inline(specs):
    """Run every cell in this process, in order; yield one event each.

    No pool, no spawn boot, no pickling — the exact code path a serial
    run takes.  Non-CellError exceptions (bad runner spec, import
    failure) propagate: they are caller bugs, not cell outcomes.
    """
    for spec in specs:
        try:
            cell = run_cell(spec)
        except CellError as exc:
            yield {"ok": False, "index": spec["index"], "error": str(exc)}
            continue
        yield {"ok": True, "cell": cell, "metrics": None}


def parent_sys_path():
    """The import-path entries a fresh worker interpreter needs.

    Whatever path the parent imported ``repro`` from must be visible to
    the child too (``PYTHONPATH=src`` runs, editable installs from a
    different cwd, ...).
    """
    import repro

    package_parent = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    return [package_parent] + [entry for entry in sys.path if entry]


def run_spawn(specs, jobs, obs_metrics=False):
    """Run the cells on up to ``jobs`` spawn-started workers.

    Each worker is a fresh interpreter (no inherited simulator state)
    that imports cells by dotted name, exactly the protocol
    :mod:`repro.par.worker` defines.  Dispatch is per cell: the pool's
    shared call queue hands an idle worker the oldest unstarted cell, so
    a skewed cell never strands the rest behind it.  Events stream back
    through ``as_completed``, in completion order.  Every worker pays an
    interpreter boot (importing ``repro`` is the bulk of it), which is
    why :func:`choose_backend` only picks this path when the cost model
    says the workload amortises it.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from multiprocessing import get_context

    specs = list(specs)
    if not specs:
        return
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(specs)),
        mp_context=get_context("spawn"),
        initializer=worker_init,
        initargs=(parent_sys_path(), obs_metrics),
    ) as pool:
        futures = {pool.submit(run_shard, spec): spec["index"]
                   for spec in specs}
        for future in as_completed(futures):
            try:
                result = future.result()
            except CellError as exc:
                yield {"ok": False, "index": futures[future],
                       "error": str(exc)}
                continue
            yield {"ok": True, "cell": result["cell"],
                   "metrics": result["metrics"]}
