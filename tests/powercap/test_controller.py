"""Closed-loop controller tests on a small single-app scenario."""

import pytest

from repro.hw.platform import Platform
from repro.kernel.kernel import Kernel
from repro.powercap import (
    BudgetTree,
    CfsBandwidthActuator,
    ControllerConfig,
    GovernorClampActuator,
    LeafBinding,
    PowerCapController,
)
from repro.sim.clock import SEC, from_msec

from tests.kernel.test_smp import spinner


def boot_hog(seed=5):
    platform = Platform.am57(seed=seed)
    kernel = Kernel(platform)
    app = spinner(kernel, "hog", pause_us=50)
    box = app.create_psbox(("cpu",))
    box.enter()
    return platform, kernel, app, box


def aggregate(platform, t0, t1):
    return sum(rail.mean_power(t0, t1) for rail in platform.rails.values())


def make_controller(kernel, app, box, cap_w, config=None):
    tree = BudgetTree.from_spec({
        "name": "root", "cap_w": cap_w,
        "children": [{"name": "hog"}],
    })
    bindings = [LeafBinding("hog", box, actuators=(
        GovernorClampActuator(kernel.cpu_governor, (box.ctx_key,)),
        CfsBandwidthActuator(kernel.smp, app),
    ))]
    return PowerCapController(kernel, tree, bindings, config=config)


def uncapped_peak(seed=5):
    platform, kernel, app, box = boot_hog(seed)
    platform.sim.run(until=2 * SEC)
    return aggregate(platform, SEC, 2 * SEC)


def test_loop_converges_to_the_cap():
    cap_w = 0.6 * uncapped_peak()
    platform, kernel, app, box = boot_hog()
    controller = make_controller(kernel, app, box, cap_w).start()
    assert controller.running
    platform.sim.run(until=3 * SEC)
    steady = aggregate(platform, 2 * SEC, 3 * SEC)
    assert steady == pytest.approx(cap_w, rel=0.10)
    assert controller.ticks > 0
    # The loop actually throttled: the leaf carries a nonzero level.
    assert controller.leaf_state("hog")["level"] > 0


def test_stop_releases_every_actuator():
    cap_w = 0.5 * uncapped_peak()
    platform, kernel, app, box = boot_hog()
    controller = make_controller(kernel, app, box, cap_w).start()
    platform.sim.run(until=2 * SEC)
    assert kernel.cpu_governor.clamps or kernel.smp.throttles
    controller.stop()
    assert not controller.running
    assert not kernel.cpu_governor.clamps
    assert not kernel.smp.throttles
    assert controller.leaf_state("hog")["level"] == 0.0
    # Released, the app climbs back to its uncapped draw.
    platform.sim.run(until=4 * SEC)
    released = aggregate(platform, 3 * SEC, 4 * SEC)
    assert released > 1.2 * cap_w


def test_unstarted_controller_schedules_nothing():
    platform, kernel, app, box = boot_hog()
    make_controller(kernel, app, box, cap_w=1.0)   # constructed only
    platform.sim.run(until=SEC)
    plain_platform, pk, pa, pb = boot_hog()
    plain_platform.sim.run(until=SEC)
    assert aggregate(platform, 0, SEC) == aggregate(plain_platform, 0, SEC)


def test_binding_must_target_a_leaf():
    platform, kernel, app, box = boot_hog()
    tree = BudgetTree.from_spec({
        "name": "root", "cap_w": 1.0,
        "children": [{"name": "hog"}],
    })
    with pytest.raises(ValueError):
        PowerCapController(kernel, tree,
                           [LeafBinding("root", box, actuators=())])


def test_telemetry_records_decisions():
    cap_w = 0.6 * uncapped_peak()
    platform, kernel, app, box = boot_hog()
    controller = make_controller(kernel, app, box, cap_w).start()
    platform.sim.run(until=SEC)
    entries = controller.log.filter("decision", node="hog")
    assert entries
    assert {"throttle", "hold"} & {p["action"] for _t, _k, p in entries}
    root_rows = controller.log.filter("decision", node="root")
    assert root_rows
    for _t, _kind, row in root_rows:
        assert row["action"] == "aggregate"
        assert row["budget_w"] == round(cap_w, 6)
        assert row["level"] == 0.0
    # one leaf and one root decision per tick, in tick order
    assert len(controller.log) == 2 * controller.ticks
    assert controller.log.times() == sorted(controller.log.times())


def test_the_log_keeps_every_decision_of_a_long_run():
    """5,000 decisions, none evicted: a window over the run's first
    second, which the powercap experiment's windowed means read, holds
    every tick of that second.  A 4,096-entry ring dropped the oldest
    904 and answered the window ``[0, 1 s)`` with 47 of its 499 ticks."""
    period = from_msec(2)
    platform, kernel, app, box = boot_hog()
    controller = make_controller(kernel, app, box, cap_w=1.0,
                                 config=ControllerConfig(period=period))
    controller.start()
    platform.sim.run(until=5 * SEC)
    assert len(controller.log) == 5000
    first_second = [t for t in controller.log.times(node="hog") if t <= SEC]
    assert first_second == list(range(period, SEC + 1, period))
    assert len(first_second) == 500
    assert len(controller.log.filter(t1=SEC, node="hog")) == 499


def test_start_is_idempotent():
    platform, kernel, app, box = boot_hog()
    controller = make_controller(kernel, app, box, cap_w=1.0)
    controller.start()
    proc = controller._proc
    controller.start()
    assert controller._proc is proc


def test_an_uncapped_root_logs_no_budget():
    platform, kernel, app, box = boot_hog()
    controller = make_controller(kernel, app, box, cap_w=None).start()
    platform.sim.run(until=SEC // 4)
    root_rows = controller.log.filter(node="root")
    assert root_rows
    assert {row["budget_w"] for _t, _k, row in root_rows} == {None}
    assert all(row["budget_w"] is not None
               for _t, _k, row in controller.log.filter(node="hog"))
