"""Figure 7: resource multiplexing detail, without and with psbox.

(a)/(b): dual-core CPU schedule (per-core owner timelines) and rail power
while calib3d co-runs with bodytrack — spatial balloons force the sibling
core idle while calib3d's psbox holds the cluster.

(c)/(d): DSP command timeline and rail power while dgemm co-runs with
sgemm and monte — temporal balloons keep foreign commands out of dgemm's
in-flight windows.

Beyond the paper's two panels, the same detail is generated for the GPU
(browser + magic) and the WiFi NIC (browser + scp) so the balloon-boundary
invariant is demonstrated on every component.
"""

from dataclasses import dataclass

from repro.apps.cpu_apps import bodytrack, calib3d
from repro.apps.dsp_apps import dgemm, monte, sgemm
from repro.apps.gpu_apps import gpu_browser, magic
from repro.apps.wifi_apps import scp, wifi_browser
from repro.experiments.common import boot
from repro.sim.clock import MSEC, SEC


@dataclass
class Fig7CpuResult:
    core_owner_segments: list      # per core: [(t0, t1, app_id), ...]
    times: object
    watts: object
    psbox_app_id: int
    windows: list                  # balloon windows [(t0, t1)]
    forced_idle_ns: int            # sibling-core idle inside balloons


def run_fig7_cpu(use_psbox=True, seed=7, duration=2 * SEC, dt=MSEC):
    platform, kernel = boot(seed=seed)
    a = calib3d(kernel, iterations=2000)
    b = bodytrack(kernel, iterations=2000)
    box = None
    if use_psbox:
        box = a.create_psbox(("cpu",))
        box.enter()
    platform.sim.run(until=duration)

    segments = []
    for trace in platform.cpu.owner_traces:
        segments.append([
            (t0, t1, int(owner))
            for t0, t1, owner in trace.segments(0, duration)
        ])
    times, watts = platform.meter.sample("cpu", 0, duration, dt)
    windows = box.vmeter.windows("cpu", 0, duration) if use_psbox else []

    forced_idle = 0
    for lo, hi in windows:
        for core_segments in segments:
            for t0, t1, owner in core_segments:
                if owner == -1:
                    s, e = max(t0, lo), min(t1, hi)
                    if e > s:
                        forced_idle += e - s
    kernel.shutdown()
    return Fig7CpuResult(
        core_owner_segments=segments, times=times, watts=watts,
        psbox_app_id=a.id, windows=windows, forced_idle_ns=forced_idle,
    )


@dataclass
class Fig7DspResult:
    commands: list                 # (app_id, kind, dispatch_t, complete_t)
    times: object
    watts: object
    psbox_app_id: int
    windows: list
    foreign_overlap_ns: int        # foreign in-flight time inside windows


def run_fig7_dsp(use_psbox=True, seed=7, duration=5 * SEC, dt=MSEC):
    platform, kernel = boot(seed=seed)
    a = dgemm(kernel, iterations=100)
    b = sgemm(kernel, iterations=200)
    c = monte(kernel, iterations=500)
    box = None
    if use_psbox:
        box = a.create_psbox(("dsp",))
        box.enter()
    platform.sim.run(until=duration)

    commands = _engine_commands(platform.dsp.log)
    times, watts = platform.meter.sample("dsp", 0, duration, dt)
    windows = box.vmeter.windows("dsp", 0, duration) if use_psbox else []
    kernel.shutdown()
    return Fig7DspResult(
        commands=commands, times=times, watts=watts, psbox_app_id=a.id,
        windows=windows,
        foreign_overlap_ns=_foreign_overlap(windows, commands, a.id),
    )


def _engine_commands(log):
    """``(app_id, kind, dispatch_t, complete_t)`` of each finished command."""
    dispatches = {}
    commands = []
    for t, kind, payload in log:
        if kind == "dispatch":
            dispatches[payload["seq"]] = (t, payload)
        elif kind == "complete" and payload["seq"] in dispatches:
            t0, info = dispatches.pop(payload["seq"])
            commands.append((info["app"], info["cmd_kind"], t0, t))
    return commands


def _foreign_overlap(windows, commands, app_id):
    """Other apps' in-flight time inside the psbox's windows."""
    return sum(max(0, min(t1, hi) - max(t0, lo))
               for lo, hi in windows
               for owner, _kind, t0, t1 in commands if owner != app_id)


def run_fig7_gpu(use_psbox=True, seed=7, duration=2 * SEC, dt=MSEC):
    """GPU analogue of Fig 7(c)/(d): browser* + magic command timelines."""
    platform, kernel = boot(seed=seed)
    a = gpu_browser(kernel)
    b = magic(kernel, frames=100_000)
    box = None
    if use_psbox:
        box = a.create_psbox(("gpu",))
        box.enter()
    platform.sim.run(until=duration)

    commands = _engine_commands(platform.gpu.log)
    times, watts = platform.meter.sample("gpu", 0, duration, dt)
    windows = box.vmeter.windows("gpu", 0, duration) if use_psbox else []
    kernel.shutdown()
    return Fig7DspResult(
        commands=commands, times=times, watts=watts, psbox_app_id=a.id,
        windows=windows,
        foreign_overlap_ns=_foreign_overlap(windows, commands, a.id),
    )


def run_fig7_wifi(use_psbox=True, seed=7, duration=3 * SEC, dt=MSEC):
    """WiFi analogue: browser* + scp transmit timelines.

    The invariant concerns *transmission* only: reception cannot be
    deferred on commodity NICs (the paper's documented limitation).
    """
    platform, kernel = boot(seed=seed)
    a = wifi_browser(kernel, pages=20)
    b = scp(kernel, total_bytes=50_000_000)
    box = None
    if use_psbox:
        box = a.create_psbox(("wifi",))
        box.enter()
    platform.sim.run(until=duration)

    transmissions = []
    starts = {}
    for t, kind, payload in platform.nic.log:
        if kind == "tx_start":
            starts[payload["seq"]] = (t, payload)
        elif kind == "tx_end" and payload["seq"] in starts:
            t0, info = starts.pop(payload["seq"])
            transmissions.append((info["app"], "tx", t0, t))
    times, watts = platform.meter.sample("wifi", 0, duration, dt)
    windows = box.vmeter.windows("wifi", 0, duration) if use_psbox else []
    kernel.shutdown()
    return Fig7DspResult(
        commands=transmissions, times=times, watts=watts,
        psbox_app_id=a.id, windows=windows,
        foreign_overlap_ns=_foreign_overlap(windows, transmissions, a.id),
    )


def result(args=None):
    """The ``fig7`` subcommand: the paper's CPU and DSP panels, with psbox."""
    return run_fig7_cpu(use_psbox=True), run_fig7_dsp(use_psbox=True)


def render(result):
    cpu, dsp = result
    return ("Fig 7 CPU — {} balloons, {:.0f} ms forced idle\n"
            "Fig 7 DSP — {} balloons, foreign overlap in windows: "
            "{:.1f} ms\n").format(len(cpu.windows), cpu.forced_idle_ns / 1e6,
                                  len(dsp.windows),
                                  dsp.foreign_overlap_ns / 1e6)
