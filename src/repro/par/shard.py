"""Work items and the deterministic merge.

A parallel run is a flat list of :class:`WorkItem` cells — one independent
(experiment, seed, config) simulation each.  Scheduling is the business
of :mod:`repro.par.executors` (a spawn pool hands an idle worker the next
unstarted cell); the *merge* is where determinism lives: results are
reassembled by each item's ``index`` (its position in the original
work-list, the shard key), never by completion order, so a parallel run
is byte-identical to the serial one however the pool interleaves.
"""

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class WorkItem:
    """One independent simulation cell.

    ``runner`` names a module-level function as ``"package.module:func"``;
    pool workers import it by name, so nothing but primitives ever
    crosses the process boundary.  The function is called as
    ``func(seed, config)`` and must return a JSON-serialisable payload
    (that is also what the result cache stores).

    ``config`` must be *strict* JSON — NaN/Infinity values serialise as
    repr-dependent non-RFC tokens that would silently fork cache keys, so
    they are rejected here, at construction, with the cell identity in
    the error.
    """

    experiment: str          # campaign name ("faults", "sweep", ...)
    runner: str              # spawn-safe dotted entry point
    seed: int
    config: dict = field(default_factory=dict)   # JSON-able cell parameters
    index: int = 0           # position in the work-list == the shard key

    def __post_init__(self):
        try:
            json.dumps(self.config, sort_keys=True, allow_nan=False)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                "WorkItem config for ({!r}, seed={}) is not strict JSON "
                "(NaN/Infinity and non-JSON types are rejected because "
                "they fork cache keys): {}".format(
                    self.experiment, self.seed, exc)) from exc

    def spec(self):
        """The picklable/JSON-able wire form workers receive."""
        return {
            "experiment": self.experiment,
            "runner": self.runner,
            "seed": int(self.seed),
            "config": dict(self.config),
            "index": int(self.index),
        }


def work_list(experiment, runner, cells):
    """Build an indexed work-list from ``(seed, config)`` pairs."""
    return [
        WorkItem(experiment=experiment, runner=runner, seed=seed,
                 config=config, index=index)
        for index, (seed, config) in enumerate(cells)
    ]


def merge_results(indexed_payloads, n_items):
    """Order payloads by shard key; completion order never leaks through.

    ``indexed_payloads`` is an iterable of ``(index, payload)`` in *any*
    order (whatever completion order the pool's workers produced).  Raises
    if a cell is missing or duplicated — a partial merge silently
    reordering would defeat the bit-identity guarantee.
    """
    slots = [None] * n_items
    seen = [False] * n_items
    for index, payload in indexed_payloads:
        if not 0 <= index < n_items:
            raise ValueError("result index {} outside work-list of {}".format(
                index, n_items))
        if seen[index]:
            raise ValueError("duplicate result for cell {}".format(index))
        seen[index] = True
        slots[index] = payload
    missing = [i for i, ok in enumerate(seen) if not ok]
    if missing:
        raise ValueError("missing results for cells {}".format(missing[:8]))
    return slots
