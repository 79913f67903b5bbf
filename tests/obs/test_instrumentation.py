"""End-to-end instrumentation tests over real kernel workloads.

Runs the fault-campaign workloads with an Obs session installed and asserts
the kernel's spans, instants, and metrics describe what actually happened:
shootdown spans nested under CPU balloons, drain/serve phase spans on the
accelerators and NIC, governor transitions, fault injections, and checker
violations as tagged trace events.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.apps.cpu_apps import dedup
from repro.apps.gpu_apps import cube
from repro.check import CheckViolation, InvariantChecker
from repro.experiments.common import boot
from repro.experiments.faults_exp import build_workload
from repro.faults import scenario
from repro.hw.platform import Platform
from repro.kernel.kernel import Kernel
from repro.obs import (
    FlightRecorder,
    Obs,
    chrome_trace_events,
    events_jsonl_lines,
    metrics_snapshot,
    render_openmetrics,
)
from repro.obs.runtime import ObsRun
from repro.obs.timeline import Timeline
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
    # Each balloon is a root: an earlier, closed balloon is not its parent.
    assert all(span.parent_id is None for span in balloons)
    by_id = {span.id: span for span in balloons}
    for span in shootdowns:
        # The parent is the balloon open when the IPI was sent.
        parent = by_id[span.parent_id]
        assert parent.start <= span.start
        assert parent.end is None or parent.end >= span.start
    assert all(span.closed for span in shootdowns)
    assert all(span.track == "smp" for span in shootdowns)
    # Exported, each balloon is its own async group and holds its IPIs.
    begins = [e for e in chrome_trace_events([obs]) if e["ph"] == "b"]
    ids = [e["id"] for e in begins if e["name"] == "balloon.cpu"]
    assert len(set(ids)) == len(ids) == len(balloons)
    assert {e["id"] for e in begins
            if e["name"] == "ipi.shootdown"} <= set(ids)


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


# -- bound instruments: lazy, and owned by one session ------------------------------


def test_untouched_metrics_and_series_are_never_created():
    """A site binds each metric at its first touch, not its component's
    whole set: a GPU app without a psbox makes the GPU scheduler's
    dispatch metrics but none of its balloon ones, and an uncapped
    powercap daemon records its aggregate but no cap series."""
    platform, kernel = boot(seed=3)
    obs = Obs(platform.sim, timeline=Timeline()).install()
    obs.bind_kernel(kernel)
    dedup(kernel, iterations=40).create_psbox(("cpu",)).enter()
    cube(kernel, frames=20)
    platform.sim.run(until=from_msec(300))
    snap = metrics_snapshot([obs])["merged"]
    names = {name for kind in ("counters", "gauges", "histograms")
             for name in snap[kind]}
    assert {"gpu.submitted", "gpu.dispatched", "gpu.dispatch_wait_ns",
            "smp.balloons", "governor.cpu.switches"} <= names
    assert not {"gpu.balloons", "gpu.drain_ns", "gpu.window_ns",
                "governor.gpu.switches"} & names
    text = render_openmetrics([obs])
    assert "gpu_submitted" in text and "gpu_balloons" not in text

    work = build_workload("powercap", 0)
    work.controller.tree.root.cap_w = None
    obs = Obs(work.platform.sim, timeline=Timeline()).install()
    work.platform.sim.run(until=from_msec(300))
    series = set(obs.timeline.names())
    assert "powercap.aggregate_w" in series
    assert not {"powercap.cap_w", "powercap.compliance_err"} & series
    assert "powercap.actions.relax" not in obs.metrics.counters


def _counts(registry):
    """Counter values and histogram counts of one registry."""
    counts = {name: c.value for name, c in registry.counters.items()}
    counts.update((name, h.count) for name, h in registry.histograms.items())
    return counts


def test_a_new_session_on_one_simulator_binds_its_own_handles():
    """Handles live in the session: once a second session replaces the
    first on a running simulator, the first stops counting and the
    second counts exactly the events after the swap."""
    half = from_msec(400)
    reference = build_workload("mixed", 0)
    whole = Obs(reference.platform.sim, tracing=False).install()
    reference.platform.sim.run(until=half)
    at_half = _counts(whole.metrics)
    reference.platform.sim.run(until=reference.horizon_ns)
    at_end = _counts(whole.metrics)

    work = build_workload("mixed", 0)
    first = Obs(work.platform.sim, tracing=False).install()
    work.platform.sim.run(until=half)
    second = Obs(work.platform.sim, tracing=False).install()
    work.platform.sim.run(until=work.horizon_ns)
    assert _counts(first.metrics) == at_half
    after = _counts(second.metrics)
    assert after and after == {
        name: at_end[name] - at_half.get(name, 0) for name in after}
    assert all(at_end[name] == at_half.get(name, 0)
               for name in set(at_end) - set(after))


def _flight_reads(recorder):
    """A new dump's sessions and actions, as ``recorder`` wrote them."""
    with open(recorder.snapshot({"type": "test"})) as handle:
        dump = json.load(handle)
    return dump["sessions"], dump["actions"]


def test_a_shut_down_boot_reads_as_it_did_live(tmp_path):
    """``Kernel.shutdown`` has the session let go of the boot, and every
    reader of what it kept answers as it did while the kernel was bound:
    log stats, the powercap actions, and a flight dump, whose stamp does
    not move (the cached session text is served again) and whose actions
    come from the kept ring."""
    work = build_workload("powercap", 0)
    run = ObsRun(tracing=True, telemetry=True,
                 flight_dir=str(tmp_path / "run"))
    obs = run.install(work.platform.sim, kernel=work.kernel)
    work.platform.sim.run(until=from_msec(600))
    assert obs.instruments

    def reads():
        return (obs.log_stats(), events_jsonl_lines([obs]),
                _flight_reads(run.flight))

    live = reads()
    text = run.flight._cache[obs][1]
    assert live[1] and live[2][1] and any(
        stats["retained"] > run.flight.events_tail
        for stats in live[0].values())
    work.kernel.shutdown()
    assert obs.kernel is None and not obs.instruments
    released = reads()
    assert released == live
    assert run.flight._cache[obs][1] is text
    # rebuilt from what the session kept, the dump is the same
    assert _flight_reads(FlightRecorder(str(tmp_path / "fresh"),
                                        sessions=[obs])) == live[2]
    work.kernel.shutdown()
    assert reads() == live


def observed_counts():
    """The metrics snapshot of one traced mixed-board run, as JSON."""
    work = build_workload("mixed", 0)
    obs = Obs(work.platform.sim, tracing=True,
              timeline=Timeline()).install()
    obs.bind_kernel(work.kernel)
    work.platform.sim.run(until=work.horizon_ns)
    return json.dumps(obs.metrics.snapshot(), sort_keys=True)


def test_two_runs_in_one_process_count_what_a_fresh_process_counts():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    fresh = subprocess.run(
        [sys.executable, "-c", "from tests.obs.test_instrumentation "
         "import observed_counts; print(observed_counts())"],
        cwd=root, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), root]))).stdout
    assert observed_counts() + "\n" == fresh
    assert observed_counts() + "\n" == fresh
