"""Closed-loop controller tests on a small single-app scenario."""

import pytest

from repro.hw.platform import Platform
from repro.kernel.kernel import Kernel
from repro.powercap import (
    BudgetTree,
    CfsBandwidthActuator,
    GovernorClampActuator,
    LeafBinding,
    PowerCapController,
    TelemetryRing,
)
from repro.sim.clock import SEC

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


def make_controller(kernel, app, box, cap_w, telemetry=None):
    tree = BudgetTree.from_spec({
        "name": "root", "cap_w": cap_w,
        "children": [{"name": "hog"}],
    })
    bindings = [LeafBinding("hog", box, actuators=(
        GovernorClampActuator(kernel.cpu_governor, (box.ctx_key,)),
        CfsBandwidthActuator(kernel.smp, app),
    ))]
    return PowerCapController(kernel, tree, bindings, telemetry=telemetry)


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
    entries = controller.telemetry.records(node="hog")
    assert entries
    assert {"throttle", "hold"} & {e["action"] for e in entries}
    root_rows = controller.telemetry.records(node="root")
    assert all(row["action"] == "aggregate" for row in root_rows)


def test_controller_keeps_the_ring_it_is_given():
    """Regression: ``telemetry or TelemetryRing()`` swapped a caller's
    ring, empty and so falsy, for a default one."""
    platform, kernel, app, box = boot_hog()
    ring = TelemetryRing(capacity=8)
    controller = make_controller(kernel, app, box, cap_w=1.0,
                                 telemetry=ring)
    assert controller.telemetry is ring
    controller.start()
    platform.sim.run(until=SEC // 4)
    assert len(ring) == 8 and ring.dropped > 0


def test_start_is_idempotent():
    platform, kernel, app, box = boot_hog()
    controller = make_controller(kernel, app, box, cap_w=1.0)
    controller.start()
    proc = controller._proc
    controller.start()
    assert controller._proc is proc
