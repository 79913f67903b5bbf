"""End-to-end instrumentation tests over real kernel workloads.

Runs the fault-campaign workloads with an Obs session installed and asserts
the kernel's spans, instants, and metrics describe what actually happened:
shootdown spans nested under CPU balloons, drain/serve phase spans on the
accelerators and NIC, governor transitions, fault injections, and checker
violations as tagged trace events.
"""

import pytest

from repro.check import CheckViolation, InvariantChecker
from repro.experiments.common import boot
from repro.experiments.faults_exp import build_workload
from repro.faults import scenario
from repro.hw.platform import Platform
from repro.kernel.kernel import Kernel
from repro.obs import Obs
from repro.sim.clock import from_msec


@pytest.fixture(scope="module")
def traced_run():
    work = build_workload("mixed", 0)
    obs = Obs(work.platform.sim, tracing=True).install()
    obs.bind_kernel(work.kernel)
    work.platform.sim.run(until=work.horizon_ns)
    return work, obs


def test_shootdown_spans_nest_under_cpu_balloons(traced_run):
    _work, obs = traced_run
    balloons = obs.tracer.find("balloon.cpu", "balloon")
    shootdowns = obs.tracer.find("ipi.shootdown")
    assert balloons and shootdowns
    balloon_ids = {span.id for span in balloons}
    assert all(span.parent_id in balloon_ids for span in shootdowns)
    assert all(span.closed for span in shootdowns)
    assert all(span.track == "smp" for span in shootdowns)


def test_balloon_spans_cover_positive_virtual_time(traced_run):
    _work, obs = traced_run
    closed = [s for s in obs.tracer.find("balloon.cpu") if s.closed]
    assert closed
    assert all(span.duration >= 0 for span in closed)
    assert any(span.duration > 0 for span in closed)
    assert all("reason" in span.args for span in closed)


def test_temporal_balloon_phase_spans(traced_run):
    """GPU and NIC serve windows appear as phase spans on their tracks."""
    _work, obs = traced_run
    for device in ("gpu", "wifi"):
        serves = obs.tracer.find(device + ".serve", "balloon")
        assert serves, "no serve spans for " + device
        assert all(span.track == device for span in serves)
        drains = obs.tracer.find(device + ".drain_others", "balloon")
        assert drains
        # Phases are sequential per device: drain ends before serve starts.
        first_serve = min(span.start for span in serves)
        first_drain = min(span.start for span in drains)
        assert first_drain <= first_serve


def test_governor_activity_traced(traced_run):
    _work, obs = traced_run
    names = {name for _t, _tr, name, _c, _a in obs.tracer.instants}
    assert "ctx.switch" in names
    assert any(name == "opp.cpu" for _t, _tr, name, _v in obs.tracer.samples)
    assert obs.metrics.counter("governor.cpu.switches").value > 0


def test_loan_lifecycle_instants(traced_run):
    _work, obs = traced_run
    loans = [args for _t, _tr, name, cat, args in obs.tracer.instants
             if cat == "loan"]
    grants = [args for _t, _tr, name, _c, args in obs.tracer.instants
              if name == "loan.grant"]
    settles = [args for _t, _tr, name, _c, args in obs.tracer.instants
               if name == "loan.settle"]
    assert loans and grants and settles
    assert all("total" in args for args in settles)


def test_metrics_describe_the_run(traced_run):
    _work, obs = traced_run
    counters = obs.metrics.counters
    assert counters["smp.balloons"].value > 0
    assert counters["cfs.dispatches"].value > 0
    assert counters["gpu.submitted"].value > 0
    assert counters["wifi.dispatched"].value > 0
    assert counters["smp.ipi.sent"].value >= counters["smp.ipi.arrived"].value
    latency = obs.metrics.histograms["smp.shootdown_latency_ns"]
    assert latency.count == counters["smp.ipi.arrived"].value
    assert latency.min >= 0


def test_log_stats_report_kernel_logs(traced_run):
    _work, obs = traced_run
    stats = obs.log_stats()
    assert stats
    assert all(set(entry) == {"retained", "dropped"}
               for entry in stats.values())
    assert any(entry["retained"] > 0 for entry in stats.values())
    assert all(entry["dropped"] == 0 for entry in stats.values())


def test_log_stats_keep_every_kernel_log_apart():
    """Both NICs' schedulers log under their own names (wifi: net.sched,
    lte: lte.sched), so no log's stats overwrite another's."""
    platform = Platform.extended(seed=0)
    kernel = Kernel(platform)
    obs = Obs(platform.sim).install().bind_kernel(kernel)
    assert len(obs.log_stats()) == len(kernel.logs())
    assert {"net.sched", "lte.sched"} <= set(obs.log_stats())


def test_fault_injections_become_tagged_instants():
    work = build_workload("mixed", 0)
    obs = Obs(work.platform.sim, tracing=True).install()
    plan = scenario("ipi-delay").build_plan(work.platform.sim, enabled=True)
    work.platform.sim.run(until=work.horizon_ns)
    assert plan.injections() > 0
    injects = [(name, cat, args)
               for _t, _tr, name, cat, args in obs.tracer.instants
               if cat == "fault"]
    assert len(injects) == plan.injections()
    assert all(name.startswith("inject.") for name, _cat, _args in injects)
    assert all("kind" in args for _name, _cat, args in injects)
    assert obs.metrics.counter("faults.injections").value == plan.injections()


def test_checker_violations_become_tagged_instants():
    platform, kernel = boot(seed=0)
    obs = Obs(platform.sim, tracing=True).install()
    checker = InvariantChecker(kernel)
    checker._flag("balloon_exclusivity", "smp", "cosched", "boom")
    instants = [(name, cat, args)
                for _t, _tr, name, cat, args in obs.tracer.instants]
    assert instants == [("violation.balloon_exclusivity", "check",
                         {"component": "smp", "event": "cosched",
                          "message": "boom"})]
    assert obs.metrics.counter("check.violations").value == 1
    # Strict mode still records the event before raising.
    strict = InvariantChecker(kernel, strict=True)
    with pytest.raises(CheckViolation):
        strict._flag("vstate_restore", "governor.cpu", "switch", "bad opp")
    assert obs.metrics.counter("check.violations").value == 2
    assert obs.metrics.counter(
        "check.violations.vstate_restore").value == 1


def test_powercap_control_loop_traced():
    work = build_workload("powercap", 0)
    obs = Obs(work.platform.sim, tracing=True).install()
    work.platform.sim.run(until=from_msec(600))
    ticks = obs.tracer.find("powercap.tick", "powercap")
    assert ticks
    assert all(span.closed and span.track == "powercap" for span in ticks)
    assert obs.metrics.counter("powercap.ticks").value == len(ticks)
    assert work.controller.ticks == len(ticks)
    gauges = obs.metrics.gauges
    assert "powercap.aggregate_w" in gauges
    assert any(name.endswith(".level") for name in gauges)
    assert any(name == "powercap.aggregate_w"
               for _t, _tr, name, _v in obs.tracer.samples)
