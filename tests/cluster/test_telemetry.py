"""Cluster-level telemetry: epoch samplers, the cap-loop session, alerts.

The overshoot scenario at the bottom is the observability stack's
acceptance shape: a seeded fault plan blinds the node daemons
(``powercap.telemetry`` corrupt — stale readings) under a tight budget,
and the ``cap.compliance`` SLO rule must fire — identically on every run
of the same seed.
"""

import pytest

from repro.cluster import (
    USERS_PER_INSTANCE,
    Cluster,
    ClusterConfig,
    ClusterTelemetry,
    ClusterTopology,
    WaterFillingAllocator,
    WorkloadSpec,
)
from repro.cluster.placement import Placement
from repro.faults import FaultPlan
from repro.obs import AlertEngine, chrome_trace_events, default_rules
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import ObsRun, observe

HORIZON_S = 1.2
EPOCH_MS = 200


def spec(name, kind="web", tenant="t0", start_s=0.0, end_s=HORIZON_S):
    return WorkloadSpec(name=name, tenant=tenant, kind=kind, start_s=start_s,
                        end_s=end_s, users=USERS_PER_INSTANCE)


def two_node_setup(budget_w=12.0):
    topo = ClusterTopology.uniform(2)
    by_node = {
        "node00": [spec("a.web"), spec("a.render", kind="render",
                                       start_s=0.1, end_s=1.0)],
        "node01": [spec("b.web", tenant="t1"),
                   spec("b.bulk", tenant="t1", kind="bulk", start_s=0.1,
                        end_s=1.0)],
    }
    config = ClusterConfig(budget_w=budget_w, horizon_s=HORIZON_S,
                           epoch_ms=EPOCH_MS)
    return topo, by_node, config


def run_with_telemetry(budget_w=12.0, engine=None, fault=False, seed=5):
    """One telemetry-on waterfill run; returns (telemetry, run)."""
    topo, by_node, config = two_node_setup(budget_w)
    telemetry = ClusterTelemetry.standalone(label="cap-loop", engine=engine)
    cluster = Cluster(topo, by_node, WaterFillingAllocator(), config,
                      seed=seed, telemetry=telemetry)
    if fault:
        for node in cluster.nodes:
            plan = FaultPlan(node.platform.sim, enabled=True)
            plan.add("powercap.telemetry", "corrupt", prob=1.0)
            plan.install()
    run = cluster.run()
    return telemetry, run


# -- the cap-loop session ----------------------------------------------------------


def test_for_runtime_is_none_when_nothing_armed():
    assert obs_runtime.current is None
    assert ClusterTelemetry.for_runtime() is None


def test_for_runtime_registers_with_armed_runtime():
    run = ObsRun(tracing=True, telemetry=True)
    with observe(run):
        telemetry = ClusterTelemetry.for_runtime(label="cap-loop")
    assert telemetry is not None
    assert run.sessions == [telemetry.obs]
    assert telemetry.obs.label == "cap-loop"
    assert telemetry.obs.timeline is not None


# -- samplers ----------------------------------------------------------------------


def test_epoch_sampler_records_the_documented_series():
    telemetry, run = run_with_telemetry()
    timeline = telemetry.obs.timeline
    epochs = len(run.epochs)
    assert epochs == 6
    for name in ("cluster.aggregate_w", "cluster.budget_w",
                 "cluster.compliance_err", "cluster.redistributed_w"):
        assert len(timeline.series(name)) == epochs
    # per-node series carry the node label, one sample per epoch
    for node in ("node00", "node01"):
        for name in ("cluster.node_power_w", "cluster.node_cap_w",
                     "cluster.node_headroom_w", "cluster.node_demand_w"):
            assert len(timeline.series(name, node=node)) == epochs
    # sample times are the epoch boundaries, in ns
    assert timeline.series("cluster.aggregate_w").times() == [
        (i + 1) * EPOCH_MS * 10**6 for i in range(epochs)]
    # headroom is cap minus draw, bit-for-bit
    cap = timeline.series("cluster.node_cap_w", node="node00").values()
    power = timeline.series("cluster.node_power_w", node="node00").values()
    head = timeline.series("cluster.node_headroom_w", node="node00").values()
    assert head == [c - p for c, p in zip(cap, power)]


def test_epoch_sampler_uses_the_in_effect_cap():
    telemetry, run = run_with_telemetry()
    timeline = telemetry.obs.timeline
    # Epoch 0 ran under the proportional split (budget/2 for uniform
    # weights), not under caps_w — which is what the allocator installed
    # *for the next epoch*.
    caps = timeline.series("cluster.node_cap_w", node="node00").values()
    assert caps[0] == pytest.approx(12.0 / 2)
    assert caps[1] == pytest.approx(run.epochs[0].caps_w["node00"])


def test_tenant_series_cover_active_tenants():
    telemetry, _run = run_with_telemetry()
    timeline = telemetry.obs.timeline
    users_t0 = timeline.series("cluster.tenant_users", tenant="t0")
    # t0's web instance is live all horizon: every epoch has a sample and
    # at least USERS_PER_INSTANCE concurrent users
    assert len(users_t0) == 6
    assert all(v >= USERS_PER_INSTANCE for v in users_t0.values())
    grants = timeline.series("cluster.tenant_grant_w", tenant="t1")
    assert len(grants) == 6
    assert all(v > 0.0 for v in grants.values())
    assert len(timeline.series("cluster.tenant_measured_w", tenant="t0")) == 6


def test_run_complete_publishes_metrics_gauges():
    telemetry, run = run_with_telemetry()
    gauges = telemetry.obs.metrics.gauges
    assert gauges["cluster.compliance_pct"].value == pytest.approx(
        run.metrics["compliance_pct"])
    assert gauges["cluster.mean_aggregate_w"].value == pytest.approx(
        run.metrics["mean_aggregate_w"])
    assert telemetry.obs.metrics.counters["cluster.epochs"].value == 6


def test_placement_sampler_counts_and_drops():
    telemetry = ClusterTelemetry.standalone(label="place")
    ok = Placement(workload=spec("a"), node="node00", predicted_w=1.0)
    spilled = Placement(workload=spec("b"), node="node01", predicted_w=1.0,
                        spilled=True)
    delayed = Placement(workload=spec("c"), node="node00", predicted_w=1.0,
                        delayed_s=0.2)
    dropped = Placement(workload=spec("d"), node=None, predicted_w=1.0)
    telemetry.on_placement([ok, spilled, delayed, dropped])
    metrics = telemetry.obs.metrics
    assert metrics.counters["placement.instances"].value == 4
    assert metrics.counters["placement.placed"].value == 3
    assert metrics.counters["placement.spills"].value == 1
    assert metrics.counters["placement.delayed"].value == 1
    assert metrics.counters["placement.dropped"].value == 1
    timeline = telemetry.obs.timeline
    assert timeline.series("placement.drop_rate").last()[1] == 0.25
    names = [name for _t, _tr, name, _c, _a
             in telemetry.obs.tracer.instants]
    assert names.count("placement.drop") == 1


def test_cap_loop_session_lands_in_the_merged_trace():
    telemetry, _run = run_with_telemetry()
    events = chrome_trace_events([telemetry.obs])
    samples = [e for e in events if e["ph"] == "C"
               and e["name"] == "cluster.aggregate_w"]
    assert len(samples) == 6
    # counter samples carry honest virtual time (epoch ends, in us)
    assert samples[0]["ts"] == EPOCH_MS * 1000.0


def test_telemetry_is_read_only_against_the_nodes():
    _telemetry, watched = run_with_telemetry()
    topo, by_node, config = two_node_setup()
    bare = Cluster(topo, by_node, WaterFillingAllocator(), config,
                   seed=5).run()
    assert watched.metrics == bare.metrics
    assert [e.caps_w for e in watched.epochs] == [
        e.caps_w for e in bare.epochs]


# -- the seeded overshoot scenario -------------------------------------------------


def overshoot_alerts(seed=5):
    """Blinded daemons + tight budget: the compliance SLO must break.

    ``powercap.telemetry`` corrupt makes every node daemon reuse stale
    leaf readings the whole run, and the budget is far below what the mix
    draws — the global loop cannot land inside the ±1% band.
    """
    engine = AlertEngine(default_rules())
    telemetry, run = run_with_telemetry(budget_w=1.0, engine=engine,
                                        fault=True, seed=seed)
    engine.finalize()
    return engine, run


def test_overshoot_fires_the_compliance_alert():
    engine, run = overshoot_alerts()
    fired = [a for a in engine.alerts if a.rule == "cap.compliance"]
    assert len(fired) == 1                    # one episode, one alert
    alert = fired[0]
    assert alert.severity == "critical"
    assert alert.session == "cap-loop"
    assert alert.streak == 4                  # fired as soon as the band
    assert alert.t_ns == 4 * EPOCH_MS * 10**6  # held 4 consecutive epochs
    assert alert.value > 0.01                 # an overshoot, not a dip
    assert not engine.ok


def test_overshoot_alert_is_seed_deterministic():
    first, _run1 = overshoot_alerts()
    second, _run2 = overshoot_alerts()
    assert ([a.to_dict() for a in first.alerts]
            == [a.to_dict() for a in second.alerts])


def test_overshoot_alert_lands_in_the_trace():
    engine, _run = overshoot_alerts()
    # the engine dropped an instant at the breach on the cap loop's track
    # (visible next to its cause in the merged Perfetto timeline)
    obs = engine._watched[0][0]
    instants = [(t, name) for t, _track, name, _c, _a in obs.tracer.instants
                if name == "alert.cap.compliance"]
    assert instants == [(4 * EPOCH_MS * 10**6, "alert.cap.compliance")]
