"""repro.par — the parallel sharded experiment runner.

Every multi-run workload in this repo — fault soaks, powercap sweeps, the
figure experiments, cluster calibration — is a list of independent,
bit-reproducible (experiment, seed, config) cells.  This package runs
such a work-list either inline or on a pool of spawn-started workers
(see :mod:`repro.par.executors`) and merges the results by shard key, so
parallel output is byte-identical to the serial run; a content-addressed
cache keyed on (experiment, seed, config hash, code fingerprint) lets
re-runs and resumed soaks skip completed cells.  Callers only say how
many jobs they allow: a persisted cost model decides whether a pool's
spawn boots would beat just running inline.

Typical use::

    from repro.par import ParallelRunner, ResultCache, work_list

    items = work_list("faults", "repro.experiments.faults_exp:run_scenario_cell",
                      [(seed, {"scenario": name}) for ...])
    runner = ParallelRunner(jobs=8, cache=ResultCache(".parcache"))
    payloads = runner.run(items)        # ordered by work-list index
"""

from repro.par.cache import MISS, ResultCache, code_fingerprint, config_hash
from repro.par.cost import CostModel, shared_model
from repro.par.executors import choose_backend
from repro.par.metrics import merge_snapshots
from repro.par.runner import ParallelRunner, RunStats, effective_jobs
from repro.par.shard import WorkItem, merge_results, work_list
from repro.par.worker import CellError, resolve_runner, run_cell, run_shard

__all__ = [
    "CellError",
    "CostModel",
    "MISS",
    "ParallelRunner",
    "ResultCache",
    "RunStats",
    "WorkItem",
    "choose_backend",
    "code_fingerprint",
    "config_hash",
    "effective_jobs",
    "merge_results",
    "merge_snapshots",
    "resolve_runner",
    "run_cell",
    "run_shard",
    "shared_model",
    "work_list",
]
