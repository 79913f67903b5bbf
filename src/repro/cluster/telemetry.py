"""Cluster-level telemetry: the global cap loop as an observable process.

The epoch loop in :class:`~repro.cluster.cluster.Cluster` is plain Python
driving N node simulators — it is not itself an event-loop process, so the
per-node ``sim.obs`` sessions never see it.  This module gives the loop
its own session: a :class:`~repro.sim.engine.Simulator` with an empty
queue, advanced to each epoch boundary, carries an
:class:`~repro.obs.session.Obs` session labelled for the run, so the
loop's spans, counter samples, timeline series, and alert instants land in
the same exporters as every node's — one merged Chrome trace where each
node is its own ``pid`` track and the cap loop is another, with cross-node
cascades lined up on one timeline.

Per epoch the sampler records, into the virtual-time series store:

* ``cluster.aggregate_w`` / ``cluster.budget_w`` /
  ``cluster.compliance_err`` / ``cluster.redistributed_w`` — the global
  loop's own control error;
* ``cluster.node_power_w`` / ``node_cap_w`` / ``node_headroom_w`` /
  ``node_demand_w`` (label ``node=``) — per-node draw against the cap
  that was *in effect* during the epoch;
* ``cluster.tenant_users`` / ``tenant_grant_w`` / ``tenant_measured_w``
  (label ``tenant=``) — per-tenant concurrent users and the allocator
  grants actually reaching them, recorded only for tenants with live
  instances (which is what makes the starvation rule a simple
  threshold).

Everything here is read-only against the node simulators — telemetry-on
cluster runs fingerprint bit-identical to bare ones (the differential
matrix's telemetry column).
"""

from repro.obs import runtime as obs_runtime
from repro.obs.session import Obs
from repro.obs.timeline import Timeline
from repro.sim.clock import SEC
from repro.sim.engine import Simulator


class ClusterTelemetry:
    """One cap-loop run's observability: session, samplers, alert feed."""

    def __init__(self, obs):
        self.obs = obs
        self.clock = obs.sim

    @classmethod
    def standalone(cls, label="cluster", tracing=True, timeline=None,
                   engine=None):
        """A self-contained instance (tests, library use).

        ``engine`` (an :class:`~repro.obs.alerts.AlertEngine`) is wired to
        watch the session when given.
        """
        obs = Obs(Simulator(), label=label, tracing=tracing,
                  timeline=timeline if timeline is not None
                  else Timeline()).install()
        if engine is not None:
            engine.watch(obs)
        return cls(obs)

    @classmethod
    def for_runtime(cls, label="cluster"):
        """An instance registered with the current observed run, or None.

        The session joins the run's ``sessions`` (so every export surface
        covers it) and, when telemetry is armed, its timeline is watched
        by the run's alert engine.  None outside an observed run.
        """
        obs = obs_runtime.install(Simulator(), label=label)
        if obs is None:
            return None
        return cls(obs)

    # -- samplers --------------------------------------------------------------------

    def on_placement(self, placements):
        """Record the placement pass: spill/delay/drop counts and rate."""
        obs = self.obs
        placed = [p for p in placements if not p.dropped]
        spills = sum(1 for p in placed if p.spilled)
        delays = [p.delayed_s for p in placed if p.delayed_s > 0]
        dropped = len(placements) - len(placed)
        obs.metrics.inc("placement.instances", len(placements))
        obs.metrics.inc("placement.placed", len(placed))
        obs.metrics.inc("placement.spills", spills)
        obs.metrics.inc("placement.delayed", len(delays))
        obs.metrics.inc("placement.dropped", dropped)
        for delay in delays:
            obs.metrics.observe("placement.delay_s", delay)
        for placement in placements:
            if placement.dropped:
                obs.tracer.instant(
                    "placement.drop", cat="placement", track="placement",
                    workload=placement.workload.name,
                    delayed_s=placement.delayed_s)
        timeline = obs.timeline
        if timeline is not None:
            now = self.clock.now
            timeline.record("placement.instances", now, len(placements))
            timeline.record("placement.spills", now, spills)
            timeline.record("placement.delayed", now, len(delays))
            timeline.record("placement.dropped", now, dropped)
            timeline.record(
                "placement.drop_rate", now,
                dropped / len(placements) if placements else 0.0)

    def on_epoch(self, record, node_telemetry, nodes, t0_ns, t1_ns):
        """Sample one epoch of the global loop.

        ``record`` is the loop's :class:`~repro.cluster.cluster
        .EpochRecord`; ``node_telemetry`` the
        :class:`~repro.cluster.allocators.NodeTelemetry` list (whose
        ``cap_w`` is the cap that governed the epoch, unlike
        ``record.caps_w`` which is next epoch's); ``nodes`` the live
        :class:`~repro.cluster.topology.Node` objects (read-only);
        ``t0_ns``/``t1_ns`` the epoch bounds.
        """
        obs = self.obs
        t1 = int(t1_ns)
        # nothing is ever scheduled on the cap-loop clock: this only moves
        # ``now`` to the epoch boundary, so samples carry honest time
        self.clock.run(until=t1)
        if obs.flight is not None:
            obs.flight.note_cluster(nodes)
        budget = record.budget_w
        err = ((record.aggregate_w - budget) / budget) if budget else 0.0
        obs.metrics.inc("cluster.epochs")
        obs.metrics.set("cluster.aggregate_w", record.aggregate_w)
        obs.tracer.sample("cluster.aggregate_w", track="cap-loop",
                          watts=round(record.aggregate_w, 4),
                          budget=round(budget, 4))
        timeline = obs.timeline
        if timeline is not None:
            timeline.record("cluster.aggregate_w", t1, record.aggregate_w)
            timeline.record("cluster.budget_w", t1, budget)
            timeline.record("cluster.compliance_err", t1, err)
            timeline.record("cluster.redistributed_w", t1,
                            record.redistributed_w)
            for entry in node_telemetry:
                cap = entry.cap_w if entry.cap_w is not None else 0.0
                timeline.record("cluster.node_power_w", t1,
                                entry.measured_w, node=entry.name)
                timeline.record("cluster.node_cap_w", t1, cap,
                                node=entry.name)
                timeline.record("cluster.node_headroom_w", t1,
                                cap - entry.measured_w, node=entry.name)
                timeline.record("cluster.node_demand_w", t1,
                                entry.demand_w, node=entry.name)
            for tenant, stats in self._tenant_stats(
                    nodes, t0_ns / SEC, t1_ns / SEC).items():
                timeline.record("cluster.tenant_users", t1,
                                stats["users"], tenant=tenant)
                timeline.record("cluster.tenant_grant_w", t1,
                                stats["grant_w"], tenant=tenant)
                timeline.record("cluster.tenant_measured_w", t1,
                                stats["measured_w"], tenant=tenant)

    def _tenant_stats(self, nodes, t0_s, t1_s):
        """Per-tenant users/grant/measured over the epoch, active only."""
        stats = {}
        for node in nodes:
            controller = node.controller
            for workload in node.workloads:
                if not workload.overlaps(t0_s, t1_s):
                    continue
                entry = stats.setdefault(
                    workload.tenant,
                    {"users": 0, "grant_w": 0.0, "measured_w": 0.0})
                entry["users"] += workload.users
                if controller is not None:
                    state = controller.leaf_state(workload.name)
                    entry["grant_w"] += state["grant_w"]
                    entry["measured_w"] += state["measured_w"]
        return stats

    def on_run_complete(self, run):
        """Publish the finished run's summary metrics into the registry.

        The cap loop's end-of-run dict (compliance, tracking error, slack
        moved) used to live only in the returned plain dict; with a
        session active it also lands in the
        :class:`~repro.obs.MetricsRegistry`, so ``--metrics`` and the
        OpenMetrics dump carry it without anyone threading the dict
        around.
        """
        obs = self.obs
        for key, value in run.metrics.items():
            if isinstance(value, (int, float)):
                obs.metrics.set("cluster.{}".format(key), value)
