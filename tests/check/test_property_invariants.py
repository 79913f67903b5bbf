"""Property tests: the checked invariants hold under randomized workloads.

No faults are injected here — these runs assert that the checker's
machine-readable statements of the paper's guarantees (vruntime
monotonicity, balloon exclusivity, loan and energy conservation, vstate
restore) hold across random task mixes, random sandbox interleavings and
random multi-device schedules, and that the checker itself raises no
false positives on healthy runs.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.base import App
from repro.check import InvariantChecker
from repro.hw.platform import Platform
from repro.kernel.actions import Compute, SendPacket, Sleep, SubmitAccel
from repro.kernel.kernel import Kernel
from repro.sim.clock import MSEC, from_usec

cpu_specs = st.lists(
    st.tuples(
        st.floats(0.3e6, 6e6),       # burst cycles
        st.integers(50, 2000),       # pause us
        st.booleans(),               # sandboxed?
    ),
    min_size=2,
    max_size=4,
)


def _boot(seed):
    platform = Platform.full(seed=seed)
    return platform, Kernel(platform)


def _cpu_app(kernel, name, burst, pause_us):
    app = App(kernel, name)

    def behavior():
        while True:
            yield Compute(burst)
            app.count("work", 1)
            yield Sleep(from_usec(pause_us))

    app.spawn(behavior())
    return app


def _checked_run(platform, kernel, horizon):
    checker = InvariantChecker(kernel).attach()
    platform.sim.run(until=horizon)
    return checker


@given(st.integers(0, 10_000), cpu_specs)
@settings(max_examples=10, deadline=None)
def test_vruntime_monotone_and_loans_conserved_under_random_mixes(seed, specs):
    platform, kernel = _boot(seed)
    for i, (burst, pause_us, sandboxed) in enumerate(specs):
        app = _cpu_app(kernel, "app{}".format(i), burst, pause_us)
        if sandboxed:
            app.create_psbox(("cpu",)).enter()
    checker = _checked_run(platform, kernel, 300 * MSEC)
    assert checker.report.ok, checker.report.summary()
    assert checker.report.checks > 0


#: (work per unit, pause us) of the boxed app and its two rivals, per
#: device; CPU work is cycles, accelerator work cycles at 0.6 W, NIC work
#: bytes
ENTER_LEAVE_MIXES = {
    "cpu": ((4e6, 150), (3e6, 200), (2.5e6, 400)),
    "gpu": ((2e6, 500), (1.4e6, 300), (2.6e6, 900)),
    "dsp": ((2e6, 500), (1.4e6, 300), (2.6e6, 900)),
    "wifi": ((24_000, 500), (16_800, 300), (31_200, 900)),
    "lte": ((24_000, 500), (16_800, 300), (31_200, 900)),
}


def _device_app(kernel, device, name, work, pause_us):
    if device == "cpu":
        return _cpu_app(kernel, name, work, pause_us)
    app = App(kernel, name)
    if device in ("wifi", "lte"):
        unit = SendPacket(work, wait=True, device=device)
    else:
        unit = SubmitAccel(device, "work", work, 0.6, wait=True)

    def behavior():
        while True:
            yield unit
            yield Sleep(from_usec(pause_us))

    app.spawn(behavior())
    return app


@given(
    st.sampled_from(sorted(ENTER_LEAVE_MIXES)),
    st.integers(0, 10_000),
    st.lists(st.integers(5, 60), min_size=2, max_size=6),
)
# leaving while the psbox's own packet is on the air
@example(device="wifi", seed=0, dwell_ms=[30, 10])
# leaving mid-drain must not leave a stale drain timer behind
@example(device="gpu", seed=0, dwell_ms=[5, 5, 5, 5])
@settings(max_examples=10, deadline=None)
def test_balloon_exclusivity_under_random_enter_leave(device, seed, dwell_ms):
    platform = Platform.extended(seed=seed)
    kernel = Kernel(platform)
    boxed, _rival_a, _rival_b = [
        _device_app(kernel, device, name, work, pause_us)
        for name, (work, pause_us)
        in zip(("boxed", "rival.a", "rival.b"), ENTER_LEAVE_MIXES[device])
    ]
    box = boxed.create_psbox((device,))
    t = 5 * MSEC
    entering = True
    for dwell in dwell_ms:
        platform.sim.at(t, box.enter if entering else box.leave)
        entering = not entering
        t += dwell * MSEC
    # long enough past the last toggle for the accelerator drain bound
    checker = _checked_run(platform, kernel, t + 150 * MSEC)
    assert checker.report.ok, checker.report.summary()
    assert checker.report.checks > 0


@given(st.integers(0, 10_000), st.booleans(), st.booleans())
@settings(max_examples=8, deadline=None)
def test_energy_conservation_under_random_device_schedules(
    seed, use_gpu, use_net
):
    platform, kernel = _boot(seed)
    boxed = _cpu_app(kernel, "boxed", 4e6, 150)
    boxed.create_psbox(("cpu",)).enter()
    _cpu_app(kernel, "rival", 3e6, 250)
    if use_gpu:
        gfx = App(kernel, "gfx")

        def gpu_behavior():
            while True:
                yield SubmitAccel("gpu", "draw", 2e6, 0.6, wait=True)
                yield Sleep(from_usec(500))

        gfx.spawn(gpu_behavior())
        gfx.create_psbox(("gpu",)).enter()
    if use_net:
        net = App(kernel, "net")

        def net_behavior():
            while True:
                yield SendPacket(24_000, wait=True)
                yield Sleep(from_usec(2000))

        net.spawn(net_behavior())
        net.create_psbox(("wifi",)).enter()
    checker = _checked_run(platform, kernel, 300 * MSEC)
    assert checker.report.ok, checker.report.summary()
    assert checker.report.checks > 0
