"""Uncapped node calibration — the cluster's ``repro.par`` phase.

Before the global cap loop can enforce a budget it needs to know what the
placed cluster *would* draw unconstrained: the datacenter budget is a
fraction of that peak (exactly how the single-board powercap experiment
derives its cap).  Each node's uncapped run is independent of every other
node's, which makes calibration the embarrassingly parallel phase: one
:class:`~repro.par.WorkItem` per node, fanned across workers by
:class:`~repro.par.ParallelRunner`, byte-identical to the serial path and
short-circuited by the content-addressed result cache on replay.

The payload is a per-epoch mean-draw series, so the experiment can sum
*aligned* windows across nodes and take the true cluster-wide peak rather
than adding up per-node peaks that never coincide.
"""

from repro.cluster.topology import Node, NodeSpec, node_seed
from repro.cluster.workloads import WorkloadSpec
from repro.par import ParallelRunner, work_list
from repro.sim.clock import SEC

#: the dotted entry point spawn-started workers import
CELL_RUNNER = "repro.cluster.calibrate:run_node_calibration"


def run_node_calibration(seed, config):
    """Spawn-safe cell: one node, uncapped, full horizon.

    ``config`` carries the node spec, its placed workload specs, and the
    epoch/horizon geometry — primitives only, straight off the wire.
    """
    spec = NodeSpec.from_dict(config["node"])
    workloads = [WorkloadSpec.from_dict(w) for w in config["workloads"]]
    horizon_ns = int(config["horizon_s"] * SEC)
    epoch_ns = int(config["epoch_ms"] * 1e6)
    node = Node(spec, workloads, seed=seed, with_controller=False,
                obs_label="cal/" + spec.name)
    node.advance(horizon_ns)
    series = node.mean_power_series(epoch_ns, horizon_ns)
    return {
        "node": spec.name,
        "series_w": series,
        "peak_w": round(max(series), 6) if series else 0.0,
        "mean_w": round(sum(series) / len(series), 6) if series else 0.0,
    }


def calibration_items(topology, by_node, seed, horizon_s, epoch_ms):
    """One work item per node, in topology order (the shard key)."""
    cells = []
    for index, spec in enumerate(topology):
        workloads = by_node.get(spec.name, ())
        cells.append((node_seed(seed, index), {
            "node": spec.to_dict(),
            "workloads": [w.to_dict() for w in workloads],
            "horizon_s": horizon_s,
            "epoch_ms": epoch_ms,
        }))
    return work_list("cluster", CELL_RUNNER, cells)


def calibrate(topology, by_node, seed, horizon_s, epoch_ms, jobs=1,
              cache=None, obs_metrics=False):
    """Run calibration across workers; returns ``(payloads, runner)``.

    Payloads arrive in topology order regardless of jobs or execution
    path (the merge is by work-list index), so everything derived from
    them is deterministic.
    """
    runner = ParallelRunner(jobs=jobs, cache=cache, obs_metrics=obs_metrics)
    payloads = runner.run(
        calibration_items(topology, by_node, seed, horizon_s, epoch_ms))
    return payloads, runner


def cluster_peak_w(payloads):
    """Peak *aligned* cluster draw: max over epochs of the node sum."""
    if not payloads:
        return 0.0
    length = max(len(p["series_w"]) for p in payloads)
    peak = 0.0
    for i in range(length):
        total = sum(p["series_w"][i] for p in payloads
                    if i < len(p["series_w"]))
        peak = max(peak, total)
    return round(peak, 6)
