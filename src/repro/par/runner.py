"""The parallel experiment runner: inline, or a spawn pool.

``ParallelRunner.run(items)`` fans a work-list of independent simulation
cells across one of the two :mod:`execution paths <repro.par.executors>`
and returns their payloads *in work-list order* — the merge sorts by
shard key, never completion order, so with deterministic cells the
output is byte-identical to a serial run whichever path ran.

The path is chosen per run, not by the caller: a spawn pool when the
host's cores, the jobs and the cells all allow more than one worker,
else inline (no pool, zero overhead).  The choice reads nothing a
previous run left behind.  The pool hands each idle worker the next
unstarted cell, so a skewed cell never strands the workers behind it.

Inside an observed run, pool cells ship their metrics home and the
runner folds them into the run in work-list order, at the point where
``run()`` returns, which is where the inline path's sessions land.  So
the merged metrics are the serial ones whichever path ran.

A :class:`~repro.par.cache.ResultCache` short-circuits completed cells
before anything is dispatched, and fresh results are *streamed* back:
each cell is persisted the moment it finishes, so a failure late in the
run no longer discards the completed cells — failed cells are collected
and reported together, with their identities, at the end.
"""

import os
import sys
from dataclasses import dataclass, field
from time import perf_counter

from repro.obs import runtime as obs_runtime
from repro.par.cache import MISS
from repro.par.executors import choose_backend, run_inline, run_spawn
from repro.par.shard import merge_results
from repro.par.worker import CellError


def effective_jobs(requested, cpu_count=None, stream=None):
    """Clamp a ``--jobs`` request to the host's core count.

    BENCH_par.json shows oversubscribing a small host is a pure loss
    (``--jobs 4`` is *slower* than ``--jobs 2`` on one core): every spawned
    worker pays an interpreter boot and then time-slices the same cores.
    The CLIs route their ``--jobs`` through here so the request is capped
    at ``os.cpu_count()`` with a one-line stderr warning instead of
    silently oversubscribing.  Returns the capped job count.
    """
    if requested < 1:
        raise ValueError("jobs must be >= 1, got {}".format(requested))
    cores = cpu_count if cpu_count is not None else os.cpu_count()
    if not cores:          # cpu_count() may return None on exotic hosts
        return requested
    if requested <= cores:
        return requested
    print("warning: --jobs {} exceeds the {} available CPU core{}; "
          "capping at {} (oversubscribed workers only add spawn cost)"
          .format(requested, cores, "" if cores == 1 else "s", cores),
          file=stream if stream is not None else sys.stderr)
    return cores


@dataclass
class RunStats:
    """What one ``run()`` did; ``summary()`` is the one-line stderr form."""

    cells: int = 0
    cached: int = 0
    executed: int = 0
    failed: int = 0
    jobs: int = 1
    backend: str = "inline"      # the path that ran: "inline" or "spawn"
    wall_s: float = 0.0
    cell_wall_s: float = 0.0     # summed per-cell time (the serial cost)
    cache: dict = field(default_factory=dict)

    def summary(self):
        line = ("par[{0.backend}]: {0.cells} cells, {0.cached} cached, "
                "{0.executed} executed on {0.jobs} jobs, "
                "wall {0.wall_s:.2f}s (serial cost {0.cell_wall_s:.2f}s)"
                .format(self))
        if self.failed:
            line += " — {} FAILED".format(self.failed)
        if self.cells and self.cached == self.cells:
            line += " — all cells cached"
        return line


class ParallelRunner:
    """Fan a work-list inline or over a spawn pool; merge by index."""

    def __init__(self, jobs=1, cache=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got {}".format(jobs))
        self.jobs = jobs
        self.cache = cache
        self.stats = RunStats(jobs=jobs)

    def run(self, items):
        """Execute every cell; returns payloads ordered by work-list index.

        Completed cells are cached as they finish.  If any cell fails, the
        remaining cells still run, every completed cell is persisted, and
        one :class:`CellError` naming each failed cell is raised at the
        end — a single bad cell no longer discards the whole run.
        """
        items = list(items)
        start = perf_counter()
        self.stats = RunStats(jobs=self.jobs, cells=len(items))
        obs_run = obs_runtime.current

        indexed = []      # (index, payload) from cache and executor alike
        todo = []
        for item in items:
            payload = self.cache.get(item) if self.cache else MISS
            if payload is not MISS:
                indexed.append((item.index, payload))
            else:
                todo.append(item)
        self.stats.cached = len(indexed)
        self.stats.executed = len(todo)

        backend, workers = choose_backend(len(todo), self.jobs)
        self.stats.backend = backend

        failures = []
        by_index = {item.index: item for item in todo}
        registries = {}
        if todo:
            specs = [item.spec() for item in todo]
            events = (run_spawn(specs, workers, obs_run is not None)
                      if backend == "spawn" else run_inline(specs))
            for event in events:
                if not event["ok"]:
                    failures.append((event["index"], event["error"]))
                    continue
                cell = event["cell"]
                index = cell["index"]
                self.stats.cell_wall_s += cell["wall_s"]
                indexed.append((index, cell["payload"]))
                if self.cache is not None:
                    # streamed write-back: a later failure cannot lose it
                    self.cache.put(by_index[index], cell["payload"])
                if event["metrics"] is not None:
                    registries[index] = event["metrics"]
        for index in sorted(registries):
            obs_run.registries.extend(registries[index])

        self.stats.failed = len(failures)
        if self.cache is not None:
            self.stats.cache = self.cache.stats()
        self.stats.wall_s = perf_counter() - start
        if failures:
            failures.sort()
            completed = self.stats.executed - len(failures)
            persisted = (" {} completed cell(s) persisted to the result "
                         "cache;".format(completed) if self.cache is not None
                         else "")
            raise CellError(
                "{} of {} executed cell(s) failed;{} failures:\n{}".format(
                    len(failures), self.stats.executed, persisted,
                    "\n".join("  " + error for _index, error in failures)))
        return merge_results(indexed, len(items))
