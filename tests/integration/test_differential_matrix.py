"""The differential fingerprint matrix.

One table, every observability/fault layering the engine's hot path has to
keep bit-identical, on every workload family:

    {tracer off, tracer on, profiler on, telemetry on,
     flight recorder armed, faults installed-but-disabled}
                x {mixed board, powercap board, 2-node cluster}

(the armed flight recorder writes its dumps to a temporary directory).

Each cell runs the workload with that layer attached and asserts the
sha256 fingerprint of the run's observable behaviour (rail change points,
kernel event logs, task end states) equals the bare serial baseline's,
bit for bit.  This is the harness that lets the event-loop hot path be
rewritten at all: the dedicated fast/traced run loops in
``Simulator.run`` must be indistinguishable in virtual time, a run under
the host profiler (``cProfile``, as ``--profile`` uses) must be the same
program, and an installed-but-disabled fault plan must stay a pure read
at every site.

Enabled (injecting) fault plans legitimately change behaviour, so for
those the contract is seed-reproducibility, asserted per workload at the
bottom.
"""

import cProfile
import hashlib

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
from repro.experiments.faults_exp import build_workload
from repro.faults import SCENARIOS, fingerprint
from repro.obs import Obs
from repro.obs.runtime import ObsRun, observe

VARIANTS = ("tracer-off", "tracer-on", "profiler-on", "telemetry-on",
            "flight-on", "faults-installed")
WORKLOADS = ("mixed", "powercap", "cluster")

CLUSTER_HORIZON_S = 0.6


def _disabled_plan(sim, workload):
    """Install a real scenario's plan, disarmed, on ``sim``."""
    scn = next(s for s in SCENARIOS if s.workload == workload and s.faults)
    return scn.build_plan(sim, enabled=False)


def _injecting_scenario(workload):
    return next(s for s in SCENARIOS if s.workload == workload and s.faults)


def _run_board(workload, variant, flight_dir):
    """One full-board run (mixed/powercap) under a matrix variant."""
    work = build_workload(workload, 0)
    sim = work.platform.sim
    if variant == "tracer-off":
        Obs(sim, tracing=False).install().bind_kernel(work.kernel)
    elif variant == "tracer-on":
        Obs(sim, tracing=True).install().bind_kernel(work.kernel)
    elif variant in ("telemetry-on", "flight-on"):
        # the full stack: tracer + timeline + a live alert engine
        # evaluating every sample as it streams off the board — and, for
        # flight-on, a recorder writing a dump on every fired alert
        ObsRun(tracing=True, telemetry=True,
               flight_dir=flight_dir if variant == "flight-on" else None,
               ).install(sim, kernel=work.kernel)
    elif variant == "faults-installed":
        _disabled_plan(sim, workload)
    elif variant != "baseline":
        raise AssertionError(variant)
    sim.run(until=work.horizon_ns)
    return fingerprint(work.platform, work.kernel)


def _cluster_setup():
    def spec(name, kind="web", tenant="t0", start_s=0.0,
             end_s=CLUSTER_HORIZON_S):
        return WorkloadSpec(name=name, tenant=tenant, kind=kind,
                            start_s=start_s, end_s=end_s,
                            users=USERS_PER_INSTANCE)

    topo = ClusterTopology.uniform(2)
    by_node = {
        "node00": [spec("a.web"),
                   spec("a.render", kind="render", start_s=0.1, end_s=0.5)],
        "node01": [spec("b.web", tenant="t1"),
                   spec("b.bulk", tenant="t1", kind="bulk", start_s=0.1,
                        end_s=0.5)],
    }
    config = ClusterConfig(budget_w=12.0, horizon_s=CLUSTER_HORIZON_S,
                           epoch_ms=200)
    return topo, by_node, config


def _run_cluster(variant, flight_dir):
    """A small capped cluster run; fingerprints every node, combined."""
    run = None
    if variant == "tracer-off":
        run = ObsRun(tracing=False)
    elif variant == "tracer-on":
        run = ObsRun(tracing=True)
    elif variant in ("telemetry-on", "flight-on"):
        # full stack on every node *and* the cap loop itself: per-session
        # timelines, cluster epoch samplers, the run's alert engine —
        # flight-on additionally arms the recorder, so every fired alert
        # writes a dump mid-run through the live hooks
        run = ObsRun(tracing=True, telemetry=True,
                     flight_dir=flight_dir if variant == "flight-on"
                     else None)
    with observe(run):
        topo, by_node, config = _cluster_setup()
        telemetry = (ClusterTelemetry.for_runtime(label="cap-loop")
                     if variant in ("telemetry-on", "flight-on") else None)
        cluster = Cluster(topo, by_node, WaterFillingAllocator(), config,
                          seed=5, telemetry=telemetry)
        if variant == "faults-installed":
            for node in cluster.nodes:
                _disabled_plan(node.platform.sim, "mixed")
        cluster.run()
    if run is not None:
        run.finalize()
    combined = hashlib.sha256()
    for node in cluster.nodes:
        combined.update(node.name.encode())
        combined.update(fingerprint(node.platform, node.kernel).encode())
    return combined.hexdigest()


def _run(workload, variant, flight_dir=None):
    if variant == "profiler-on":
        # the bare run, under cProfile's hook on every Python call
        return cProfile.Profile().runcall(_run, workload, "baseline")
    if workload == "cluster":
        return _run_cluster(variant, flight_dir)
    return _run_board(workload, variant, flight_dir)


@pytest.fixture(scope="module")
def baselines():
    """Bare serial fingerprints: no session, no profiler, no plan."""
    return {workload: _run(workload, "baseline") for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_is_bit_identical_to_serial_baseline(
        variant, workload, baselines, tmp_path):
    assert _run(workload, variant, str(tmp_path)) == baselines[workload]


@pytest.mark.parametrize("workload", ("mixed", "powercap"))
def test_injecting_plan_is_seed_reproducible(workload, baselines):
    """Armed faults may change the run — but identically at a seed."""
    scn = _injecting_scenario(workload)

    def injected():
        work = build_workload(workload, 0)
        plan = scn.build_plan(work.platform.sim, enabled=True)
        work.platform.sim.run(until=work.horizon_ns)
        return fingerprint(work.platform, work.kernel), plan.injections()

    first, n_first = injected()
    second, n_second = injected()
    assert first == second
    assert n_first == n_second > 0
    assert first != baselines[workload]
