"""The simulated datacenter: N nodes, one budget, one global cap loop.

``Cluster.run()`` boots every node (a full per-node simulator + powercap
daemon, see :mod:`repro.cluster.topology`), then advances them in lockstep
epochs.  At each epoch boundary the loop closes over node telemetry —
measured aggregate draw and unthrottled-demand estimates — hands it to the
:class:`~repro.cluster.allocators.GlobalAllocator`, and installs the
returned caps as the nodes' budget-tree roots for the next epoch.  The
node daemons do the actual throttling; the global loop only ever moves
budget between boards.

Epoch boundaries also feed the placement predictor: measured per-instance
draw flows back into the per-kind correction factors, so a campaign's
later placements are better informed than its first.
"""

from dataclasses import dataclass, field

from repro.cluster.allocators import NodeTelemetry, redistribution_w
from repro.cluster.topology import Node, node_seed
from repro.sim.clock import SEC


@dataclass
class ClusterConfig:
    """Shape of one cluster run."""

    budget_w: float                  # the datacenter cap the loop enforces
    horizon_s: float = 6.0
    epoch_ms: int = 250
    settle_window: tuple = (0.35, 0.90)   # metrics window, horizon fractions
    observe_level_max: float = 0.25  # skip predictor feedback when throttled

    def __post_init__(self):
        if self.budget_w <= 0:
            raise ValueError("budget must be positive")
        if self.epoch_ms <= 0:
            raise ValueError("epoch must be positive")


@dataclass
class EpochRecord:
    """One row of the global loop's telemetry."""

    t_s: float                       # epoch end, seconds
    aggregate_w: float               # cluster draw over the epoch
    budget_w: float
    caps_w: dict                     # node -> cap installed for next epoch
    measured_w: dict                 # node -> epoch mean draw
    demand_w: dict                   # node -> demand estimate
    redistributed_w: float           # cap moved off the proportional split


@dataclass
class ClusterRun:
    """Everything one allocator's run produced."""

    allocator: str
    epochs: list = field(default_factory=list)
    throttle_actions: int = 0
    predictor_stats: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)


class Cluster:
    """N simulated nodes under one datacenter budget."""

    def __init__(self, topology, placements_by_node, allocator, config,
                 seed=0, predictor=None, placements=None, telemetry=None):
        self.topology = topology
        self.allocator = allocator
        self.config = config
        self.seed = seed
        self.predictor = predictor
        self.telemetry = telemetry   # ClusterTelemetry or None (dormant)
        self._placements = list(placements or [])
        self.nodes = [
            # Session labels carry the allocator so one trace file can hold
            # both head-to-head runs without ambiguous node names.
            Node(spec, placements_by_node.get(spec.name, ()),
                 seed=node_seed(seed, index),
                 obs_label="{}/{}".format(allocator.name, spec.name))
            for index, spec in enumerate(topology)
        ]

    def run(self):
        """Drive the epoch loop over the whole horizon; returns the run."""
        cfg = self.config
        self.allocator.reset()
        epoch_ns = int(cfg.epoch_ms * 1e6)
        horizon_ns = int(cfg.horizon_s * SEC)
        dt_s = epoch_ns / 1e9

        # Epoch zero starts from the proportional division — the
        # allocator has no telemetry yet.
        weights = {node.name: node.spec.weight for node in self.nodes}
        total_weight = sum(weights.values())
        for node in self.nodes:
            node.set_cap(cfg.budget_w * weights[node.name] / total_weight)

        run = ClusterRun(allocator=self.allocator.name)
        predicted_by_name = {p.workload.name: p.predicted_w
                             for p in self._placements}
        t = 0
        while t < horizon_ns:
            end = min(t + epoch_ns, horizon_ns)
            for node in self.nodes:
                node.advance(end)
            telemetry = [
                NodeTelemetry(
                    name=node.name,
                    measured_w=node.platform.aggregate_power(t, end),
                    demand_w=node.demand_w(t, end),
                    cap_w=node.cap_w,
                    weight=node.spec.weight,
                )
                for node in self.nodes
            ]
            caps = self.allocator.allocate(telemetry, cfg.budget_w, dt_s)
            for node in self.nodes:
                node.set_cap(caps[node.name])
            record = EpochRecord(
                t_s=end / SEC,
                aggregate_w=sum(x.measured_w for x in telemetry),
                budget_w=cfg.budget_w,
                caps_w={x.name: caps[x.name] for x in telemetry},
                measured_w={x.name: x.measured_w for x in telemetry},
                demand_w={x.name: x.demand_w for x in telemetry},
                redistributed_w=redistribution_w(caps, telemetry),
            )
            run.epochs.append(record)
            if self.telemetry is not None:
                self.telemetry.on_epoch(record, telemetry, self.nodes,
                                        t, end)
            if self.predictor is not None:
                self._feed_predictor(predicted_by_name, t, end)
            t = end

        run.throttle_actions = sum(node.throttle_actions()
                                   for node in self.nodes)
        if self.predictor is not None:
            run.predictor_stats = self.predictor.stats()
        run.metrics = self._metrics(run)
        if self.telemetry is not None:
            self.telemetry.on_run_complete(run)
        return run

    def _feed_predictor(self, predicted_by_name, t0, t1):
        """Close the WattsApp loop: measured per-instance draw -> model."""
        cfg = self.config
        t0_s, t1_s = t0 / SEC, t1 / SEC
        for node in self.nodes:
            controller = node.controller
            for workload in node.active_workloads(t0_s, t1_s):
                if not (workload.start_s <= t0_s
                        and workload.end_s >= t1_s):
                    continue          # partial epochs under-measure
                state = controller.leaf_state(workload.name)
                if state["level"] > cfg.observe_level_max:
                    continue          # throttled draw is not demand
                predicted = predicted_by_name.get(workload.name)
                if predicted is None:
                    continue
                self.predictor.observe(workload.kind, predicted,
                                       state["measured_w"])

    def _metrics(self, run):
        """Cap compliance and slack redistribution over the settle window."""
        cfg = self.config
        lo = cfg.settle_window[0] * cfg.horizon_s
        hi = cfg.settle_window[1] * cfg.horizon_s
        window = [e for e in run.epochs if lo <= e.t_s <= hi]
        if not window:
            window = run.epochs
        n = len(window)
        mean_agg = sum(e.aggregate_w for e in window) / n
        err = [(e.aggregate_w - e.budget_w) / e.budget_w for e in window]
        return {
            "epochs": len(run.epochs),
            "window_epochs": n,
            "mean_aggregate_w": round(mean_agg, 6),
            "budget_w": round(cfg.budget_w, 6),
            "compliance_pct": round(
                (mean_agg - cfg.budget_w) / cfg.budget_w * 100.0, 6),
            "mean_abs_error_pct": round(
                sum(abs(x) for x in err) / n * 100.0, 6),
            "max_overshoot_pct": round(max(err) * 100.0, 6),
            "redistributed_slack_w": round(
                sum(e.redistributed_w for e in window) / n, 6),
            "throttle_actions": run.throttle_actions,
        }
