"""A finished boot frees itself: the owners that boot shut it down.

The pinned runs (``test_pinned_fingerprints.py``) cover
:meth:`repro.kernel.kernel.Kernel.shutdown` on every boot shape they
make.  These cover two owners that call it, the side-channel attack's
``observe`` and the faults campaign's ``run_scenario``, and the temporal
balloon's completion callbacks, which must not make cycles even while a
boot is alive: a completed GPU, DSP, WiFi or LTE unit dies by reference
counting.
"""

import pytest

from repro.apps.base import App
from repro.experiments.cluster_exp import run_cluster
from repro.experiments.common import boot
from repro.experiments.faults_exp import build_workload, run_scenario
from repro.faults import scenario
from repro.kernel.actions import Compute
from repro.sidechannel.attack import WebsiteFingerprinter
from repro.sim.clock import from_msec
from tests.integration.test_pinned_fingerprints import cyclic_garbage


@pytest.mark.parametrize("use_psbox", [False, True], ids=["bare", "psbox"])
def test_observe_leaves_no_cyclic_garbage(use_psbox):
    attack = WebsiteFingerprinter()
    assert cyclic_garbage(
        lambda: attack.observe("google", 100, use_psbox)) == []


def test_run_scenario_leaves_no_cyclic_garbage():
    # invariant checker attached, fault plan armed with task crashes
    outcomes = []
    assert cyclic_garbage(
        lambda: outcomes.append(run_scenario(scenario("task-crash")))) == []
    assert outcomes[0].injections > 0 and outcomes[0].checks > 0


def test_shutdown_frees_a_board_with_an_armed_cpu_throttle():
    # the pending edge event's arguments (group, throttle) reach back to
    # the throttle that holds the event
    def spin():
        while True:
            yield Compute(2e6)

    def run():
        platform, kernel = boot(seed=1)
        app = App(kernel, "throttled")
        app.spawn(spin())
        kernel.smp.set_cpu_bandwidth(app, 0.5)
        platform.sim.run(until=from_msec(25))
        assert kernel.smp.throttles[app.id].event is not None
        kernel.shutdown()

    assert cyclic_garbage(run) == []


def test_shutdown_drops_balloon_hooks_that_reach_the_kernel():
    def run():
        platform, kernel = boot(seed=1)
        for sched in (kernel.smp, *kernel.balloon_scheds.values()):
            sched.balloon_in_hooks.append(lambda app, t: kernel.now)
        kernel.shutdown()

    assert cyclic_garbage(run) == []


def test_unobserved_cluster_leaves_no_cyclic_garbage():
    # ``cluster --nodes 1 --jobs 1``: each calibration cell and each
    # allocator run shuts its nodes down, cap loop first
    results = []
    assert cyclic_garbage(
        lambda: results.append(run_cluster(nodes=1, jobs=1))) == []
    result, _runner = results[0]
    assert set(result.runs) == {"pi", "waterfill"}


def test_completed_units_leave_no_cyclic_garbage_on_a_live_board():
    work = build_workload("mixed", 0)
    assert cyclic_garbage(
        lambda: work.platform.sim.run(until=work.horizon_ns)) == []
