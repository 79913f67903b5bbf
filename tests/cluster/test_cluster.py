"""The booted cluster: nodes, calibration cells, the global cap loop.

Small topologies and short horizons keep this fast; the full 8-node
acceptance run lives in ``benchmarks/`` and the ``cluster`` subcommand.
"""

import pytest

from repro.cluster import (
    USERS_PER_INSTANCE,
    Cluster,
    ClusterConfig,
    ClusterTopology,
    Node,
    NodeSpec,
    PIBaselineAllocator,
    WaterFillingAllocator,
    WorkloadSpec,
    calibrate,
    cluster_peak_w,
    node_seed,
    run_node_calibration,
)

HORIZON_S = 1.2


def spec(name, kind="web", tenant="t0", start_s=0.0, end_s=HORIZON_S):
    return WorkloadSpec(name=name, tenant=tenant, kind=kind, start_s=start_s,
                        end_s=end_s, users=USERS_PER_INSTANCE)


def two_node_setup():
    topo = ClusterTopology.uniform(2)
    by_node = {
        "node00": [spec("a.web"), spec("a.render", kind="render",
                                       start_s=0.1, end_s=1.0)],
        "node01": [spec("b.web", tenant="t1"),
                   spec("b.bulk", tenant="t1", kind="bulk", start_s=0.1,
                        end_s=1.0)],
    }
    return topo, by_node


# -- the booted node ---------------------------------------------------------------


def test_node_rejects_workloads_its_components_cannot_serve():
    with pytest.raises(ValueError, match="needs 'gpu'"):
        Node(NodeSpec("n", components=("cpu",)),
             [spec("a", kind="render")], seed=1)


def test_calibration_node_runs_uncapped():
    node = Node(NodeSpec("n"), [spec("a", end_s=0.6)], seed=3,
                with_controller=False)
    assert node.cap_w is None
    with pytest.raises(RuntimeError, match="calibration"):
        node.set_cap(1.0)
    node.advance(int(0.6e9))
    aggregate = node.platform.aggregate_power(0, int(0.6e9))
    assert aggregate > 0.3                       # busy web instance + idle
    # No controller: the demand estimate is just the measured draw.
    assert node.demand_w(0, int(0.6e9)) == pytest.approx(aggregate)


def test_calibration_cell_payload_is_deterministic():
    config = {
        "node": NodeSpec("n").to_dict(),
        "workloads": [spec("a", end_s=0.6).to_dict()],
        "horizon_s": 0.6,
        "epoch_ms": 200,
    }
    first = run_node_calibration(7, config)
    second = run_node_calibration(7, config)
    assert first == second
    assert first["node"] == "n"
    assert len(first["series_w"]) == 3
    assert first["peak_w"] == max(first["series_w"])


def test_cluster_peak_w_sums_aligned_epochs():
    payloads = [{"series_w": [1.0, 3.0, 1.0]}, {"series_w": [2.0, 1.0]}]
    # Aligned peak is 3+1=4 at epoch 1, not 3+2=5 (peaks never coincide).
    assert cluster_peak_w(payloads) == pytest.approx(4.0)
    assert cluster_peak_w([]) == 0.0


def test_config_validation():
    with pytest.raises(ValueError, match="budget"):
        ClusterConfig(budget_w=0.0)
    with pytest.raises(ValueError, match="epoch"):
        ClusterConfig(budget_w=1.0, epoch_ms=0)


# -- the global loop ---------------------------------------------------------------


def test_cluster_run_enforces_and_is_deterministic():
    topo, by_node = two_node_setup()
    payloads, _runner = calibrate(topo, by_node, seed=5,
                                  horizon_s=HORIZON_S, epoch_ms=200)
    budget = 0.7 * cluster_peak_w(payloads)
    config = ClusterConfig(budget_w=budget, horizon_s=HORIZON_S,
                           epoch_ms=200)

    runs = [
        Cluster(topo, by_node, WaterFillingAllocator(), config,
                seed=5).run()
        for _ in range(2)
    ]
    assert runs[0].metrics == runs[1].metrics     # bit-for-bit replay
    run = runs[0]
    assert run.allocator == "waterfill"
    assert len(run.epochs) == 6
    assert run.throttle_actions > 0               # the cap actually bites
    # Every epoch's caps sum close to the budget (P/I terms move a little
    # budget between epochs, never invent much).
    for epoch in run.epochs:
        assert sum(epoch.caps_w.values()) == pytest.approx(
            budget, rel=0.75)
    # Under-budget mean draw, not wildly below.
    assert run.metrics["mean_aggregate_w"] < budget * 1.1
    assert run.metrics["mean_aggregate_w"] > budget * 0.5

    pi = Cluster(topo, by_node, PIBaselineAllocator(), config, seed=5).run()
    assert pi.allocator == "pi"
    assert pi.metrics["redistributed_slack_w"] == pytest.approx(0.0)


def test_parallel_calibration_matches_serial(tmp_path):
    from repro.par import ResultCache

    topo, by_node = two_node_setup()
    serial, _ = calibrate(topo, by_node, seed=5, horizon_s=0.6,
                          epoch_ms=200)
    cached, runner = calibrate(topo, by_node, seed=5, horizon_s=0.6,
                               epoch_ms=200,
                               cache=ResultCache(str(tmp_path)))
    assert cached == serial
    assert runner.stats.executed == 2
    replay, runner = calibrate(topo, by_node, seed=5, horizon_s=0.6,
                               epoch_ms=200,
                               cache=ResultCache(str(tmp_path)))
    assert replay == serial
    assert runner.stats.cached == 2


def test_distinct_node_seeds_give_distinct_boards():
    topo, by_node = two_node_setup()
    nodes = [
        Node(spec_, by_node[spec_.name], seed=node_seed(5, i),
             with_controller=False)
        for i, spec_ in enumerate(topo)
    ]
    for node in nodes:
        node.advance(int(0.4e9))
    draws = [node.platform.aggregate_power(0, int(0.4e9)) for node in nodes]
    assert draws[0] != draws[1]
