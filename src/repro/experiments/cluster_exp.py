"""The datacenter experiment: placement, calibration, global cap loop.

``python -m repro.experiments cluster`` drives the full
:mod:`repro.cluster` stack end to end:

1. **generate** — the standard traffic mix (diurnal curve with
   phase-staggered regional tenants, a flash crowd, tenant churn) sized
   in millions of simulated users;
2. **place** — the WattsApp-style engine assigns every instance to a node
   by predicted draw against headroom (spill / queue-delay fallbacks);
3. **calibrate** — each placed node runs once uncapped, one
   ``repro.par`` cell per node (``--jobs`` shards nodes across workers,
   ``--cache`` makes replays free), and the aligned cluster-wide peak
   prices the datacenter budget;
4. **enforce** — the global cap loop runs twice over identical nodes,
   once per :class:`~repro.cluster.allocators.GlobalAllocator`
   (nvPAX-style water-filling vs the PI baseline), head to head.

Everything derived is deterministic for a fixed seed; the run's metrics
are written as ``BENCH_cluster.json`` so CI can diff and archive them.
"""

import json
from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.cluster import (
    Cluster,
    ClusterConfig,
    ClusterTelemetry,
    ClusterTopology,
    PIBaselineAllocator,
    PlacementEngine,
    PowerPredictor,
    WaterFillingAllocator,
    calibrate,
    cluster_peak_w,
    peak_concurrent_users,
    placement_quality,
    placements_by_node,
    standard_mix,
)
from repro.par import ResultCache

#: default shape of the acceptance run
DEFAULT_NODES = 8
DEFAULT_HORIZON_S = 6.0
DEFAULT_PEAK_USERS = 2_400_000
DEFAULT_BENCH_PATH = "BENCH_cluster.json"


@dataclass
class ClusterExperimentResult:
    """Everything one cluster campaign produced (JSON-able but ``par``)."""

    seed: int
    nodes: int
    horizon_s: float
    epoch_ms: int
    peak_users: int                    # peak concurrent users served
    instances: int                     # workload instances generated
    uncapped_peak_w: float             # aligned cluster peak, calibration
    budget_w: float                    # enforced datacenter cap
    cap_fraction: float
    placement: dict = field(default_factory=dict)
    runs: dict = field(default_factory=dict)     # allocator -> metrics
    predictor: dict = field(default_factory=dict)
    #: the calibration runner's RunStats (stderr only, never benched)
    par: object = field(default=None, compare=False, repr=False)

    def bench(self):
        """The ``BENCH_cluster.json`` payload (stable key order)."""
        return {
            "experiment": "cluster",
            "seed": self.seed,
            "nodes": self.nodes,
            "horizon_s": self.horizon_s,
            "epoch_ms": self.epoch_ms,
            "peak_concurrent_users": self.peak_users,
            "instances": self.instances,
            "uncapped_peak_w": self.uncapped_peak_w,
            "budget_w": self.budget_w,
            "cap_fraction": self.cap_fraction,
            "placement": self.placement,
            "allocators": self.runs,
            "predictor": self.predictor,
        }


def run_cluster(seed=11, nodes=DEFAULT_NODES, horizon_s=DEFAULT_HORIZON_S,
                cap_fraction=0.70, peak_users=None,
                epoch_ms=250, jobs=1, cache=None):
    """The full campaign; returns ``(result, runner)``.

    ``peak_users`` defaults to the canonical 2.4M scaled by topology size
    (constant per-node pressure), so ``--nodes 2`` is a quick smoke run
    and ``--nodes 8`` the acceptance shape.  ``runner`` is the
    calibration phase's :class:`~repro.par.RunStats` carrier — callers
    print its summary to stderr so stdout stays byte-identical between
    serial and parallel runs.
    """
    if peak_users is None:
        peak_users = int(DEFAULT_PEAK_USERS * nodes / DEFAULT_NODES)
    topology = ClusterTopology.uniform(nodes)
    specs, _tenants = standard_mix(seed, horizon_s, peak_users=peak_users)
    predictor = PowerPredictor()
    engine = PlacementEngine(topology, predictor, horizon_s=horizon_s)
    placements = engine.place_all(specs)
    by_node = placements_by_node(placements)
    quality = placement_quality(placements, topology, horizon_s, engine)
    # One session for the campaign-level phases (placement), plus one per
    # allocator's cap loop below — all registered with the observed run so
    # --trace/--metrics/--telemetry cover them.  None when nothing observes.
    campaign_telemetry = ClusterTelemetry.for_runtime(label="cluster")
    if campaign_telemetry is not None:
        campaign_telemetry.on_placement(placements)

    payloads, runner = calibrate(topology, by_node, seed, horizon_s,
                                 epoch_ms, jobs=jobs, cache=cache)
    uncapped_peak = cluster_peak_w(payloads)
    budget = cap_fraction * uncapped_peak

    config = ClusterConfig(budget_w=budget, horizon_s=horizon_s,
                           epoch_ms=epoch_ms)
    result = ClusterExperimentResult(
        seed=seed, nodes=nodes, horizon_s=horizon_s, epoch_ms=epoch_ms,
        peak_users=peak_concurrent_users(specs, horizon_s),
        instances=len(specs),
        uncapped_peak_w=uncapped_peak,
        budget_w=round(budget, 6),
        cap_fraction=cap_fraction,
        placement=quality,
    )
    # The water-filling run feeds the predictor (the placement loop it
    # closes); the PI baseline runs blind so the comparison is pure
    # allocator-vs-allocator over identical nodes.
    for allocator, feed in ((WaterFillingAllocator(), True),
                            (PIBaselineAllocator(), False)):
        telemetry = ClusterTelemetry.for_runtime(
            label="cluster/" + allocator.name)
        cluster = Cluster(
            topology, by_node, allocator, config, seed=seed,
            predictor=predictor if feed else None,
            placements=placements if feed else None,
            telemetry=telemetry,
        )
        result.runs[allocator.name] = cluster.run().metrics
        for node in cluster.nodes:
            node.shutdown()
    result.predictor = predictor.stats()
    return result, runner


def write_bench(result, path=DEFAULT_BENCH_PATH):
    """Write the deterministic benchmark artifact; returns the path."""
    with open(path, "w") as handle:
        json.dump(result.bench(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def result(args):
    """The campaign at ``--nodes`` (default 8), calibration over ``--jobs``."""
    campaign, runner = run_cluster(
        nodes=args.nodes or DEFAULT_NODES, jobs=args.jobs,
        cache=ResultCache(args.cache) if args.cache else None)
    campaign.par = runner.stats
    return campaign


def render(result):
    rows = [[name,
             "{:+.2f}%".format(m["compliance_pct"]),
             "{:.2f}%".format(m["mean_abs_error_pct"]),
             "{:+.2f}%".format(m["max_overshoot_pct"]),
             "{:.3f} W".format(m["redistributed_slack_w"]),
             str(m["throttle_actions"])]
            for name, m in sorted(result.runs.items())]
    return format_table(
        ["quantity", "value"],
        [["nodes", str(result.nodes)],
         ["instances placed", "{}/{}".format(result.placement["placed"],
                                             result.instances)],
         ["peak concurrent users", "{:,}".format(result.peak_users)],
         ["uncapped cluster peak", "{:.2f} W".format(result.uncapped_peak_w)],
         ["datacenter budget (70%)", "{:.2f} W".format(result.budget_w)],
         ["spill rate", "{:.1%}".format(result.placement["spill_rate"])],
         ["placement balance CV", "{:.3f}".format(
             result.placement["balance_cv"])]],
        title="Cluster — {} nodes under one budget".format(result.nodes),
    ) + "\n" + format_table(
        ["allocator", "compliance", "abs err", "max over", "slack moved",
         "actions"],
        rows,
        title="Global allocators, head to head",
    ) + "\n"
