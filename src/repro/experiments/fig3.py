"""Figure 3: the three causes of power entanglement, demonstrated.

(a) spatial concurrency — total CPU power of two co-running instances vs
    2x the power of one instance running alone;
(b) blurry request boundary — three GPU commands, command 2 overlapping
    command 1 in flight;
(c) lingering power state — the same app's power when it starts after an
    idle period vs right after a busy workload.
"""

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import format_series, format_table
from repro.apps.base import App
from repro.experiments.common import boot
from repro.kernel.actions import Compute, Sleep
from repro.sim.clock import MSEC, SEC


def _spinner(kernel, name, burst=5.0e6, pause_us=100, repeats=400):
    """A CPU-bound process: near-continuous compute bursts."""
    app = App(kernel, name)

    def behavior():
        for _ in range(repeats):
            yield Compute(burst)
            yield Sleep(pause_us * 1000)

    app.spawn(behavior(), name=name)
    return app


@dataclass
class Fig3aResult:
    times: np.ndarray
    watts_two_instances: np.ndarray
    watts_one_doubled: np.ndarray
    mean_two: float
    mean_one_doubled: float

    @property
    def overestimate_pct(self):
        """How much doubling one instance overestimates two instances."""
        return 100.0 * (self.mean_one_doubled - self.mean_two) / self.mean_two


def run_fig3a_spatial(seed=11, duration=1 * SEC, dt=MSEC):
    """One instance per core vs one instance alone, doubled."""
    warmup = 200 * MSEC   # let the governor reach steady state

    platform1, kernel1 = boot(seed=seed)
    _spinner(kernel1, "proc0")
    platform1.sim.run(until=warmup + duration)
    _t, one = platform1.meter.sample("cpu", warmup, warmup + duration, dt)
    kernel1.shutdown()

    platform2, kernel2 = boot(seed=seed)
    _spinner(kernel2, "proc0")
    _spinner(kernel2, "proc1")
    platform2.sim.run(until=warmup + duration)
    times, two = platform2.meter.sample("cpu", warmup, warmup + duration, dt)
    kernel2.shutdown()

    return Fig3aResult(
        times=times,
        watts_two_instances=two,
        watts_one_doubled=2.0 * one,
        mean_two=float(two.mean()),
        mean_one_doubled=float(2.0 * one.mean()),
    )


@dataclass
class Fig3bResult:
    commands: list                      # (n, kind, dispatch_t, notify_t)
    times: np.ndarray
    watts: np.ndarray
    overlap_ns: int                     # cmd 1 / cmd 2 in-flight overlap


def run_fig3b_requests(seed=12, dt=100_000):
    """Three GPU commands; command 2 overlaps command 1 in flight."""
    platform, kernel = boot(seed=seed)
    app = App(kernel, "cmds")
    notify = {}

    def on_done(command):
        notify[command.seq] = kernel.now

    sched = kernel.gpu_sched
    c1 = sched.submit(app, "long", cycles=4.0e6, power_w=0.9,
                      on_complete=on_done)
    platform.sim.run(until=4 * MSEC)
    c2 = sched.submit(app, "short", cycles=1.5e6, power_w=0.55,
                      on_complete=on_done)
    # Command 3 goes in only after 1 and 2 are done: no overlap.
    platform.sim.run(until=60 * MSEC)
    c3 = sched.submit(app, "short", cycles=1.5e6, power_w=0.55,
                      on_complete=on_done)
    platform.sim.run(until=120 * MSEC)

    # Commands are numbered 1-3 as in the figure.
    commands = [
        (n, c.kind, c.dispatch_t, notify.get(c.seq))
        for n, c in enumerate((c1, c2, c3), start=1)
    ]
    times, watts = platform.meter.sample("gpu", 0, 120 * MSEC, dt)
    overlap = max(0, min(c1.complete_t, c2.complete_t) - c2.dispatch_t)
    kernel.shutdown()
    return Fig3bResult(commands=commands, times=times, watts=watts,
                       overlap_ns=int(overlap))


@dataclass
class Fig3cResult:
    times: np.ndarray
    watts_after_idle: np.ndarray
    watts_after_busy: np.ndarray
    mean_after_idle: float
    mean_after_busy: float

    @property
    def lingering_pct(self):
        return 100.0 * (self.mean_after_busy - self.mean_after_idle) \
            / self.mean_after_idle


def run_fig3c_lingering(seed=13, dt=MSEC):
    """The same app after an idle period vs right after a busy workload.

    The measurement window is short (~100 ms) because that is where the
    lingering DVFS state lives: after it, the governor has converged either
    way.
    """
    measure = 100 * MSEC

    # After idle: the app starts on a cold (low-frequency) CPU.
    platform1, kernel1 = boot(seed=seed)
    platform1.sim.run(until=500 * MSEC)
    start1 = platform1.sim.now
    _spinner(kernel1, "app", repeats=60)
    platform1.sim.run(until=start1 + measure)
    times, after_idle = platform1.meter.sample(
        "cpu", start1, start1 + measure, dt)
    kernel1.shutdown()

    # After busy: a heavy workload just finished; frequency is still high.
    platform2, kernel2 = boot(seed=seed)
    warm = _spinner(kernel2, "warm", repeats=95)
    while not warm.finished:
        platform2.sim.run(until=platform2.sim.now + 10 * MSEC)
    start2 = platform2.sim.now
    _spinner(kernel2, "app", repeats=60)
    platform2.sim.run(until=start2 + measure)
    _t, after_busy = platform2.meter.sample(
        "cpu", start2, start2 + measure, dt)
    kernel2.shutdown()

    return Fig3cResult(
        times=times,
        watts_after_idle=after_idle,
        watts_after_busy=after_busy,
        mean_after_idle=float(after_idle.mean()),
        mean_after_busy=float(after_busy.mean()),
    )


def result(args=None):
    """The ``fig3`` subcommand: panels (a), (b) and (c), in that order."""
    return run_fig3a_spatial(), run_fig3b_requests(), run_fig3c_lingering()


def render(result):
    a, b, c = result
    return "\n".join([
        format_table(
            ["series", "mean W"],
            [["2 instances", "{:.2f}".format(a.mean_two)],
             ["1 instance doubled", "{:.2f}".format(a.mean_one_doubled)]],
            title="Fig 3a — spatial concurrency",
        ),
        "doubling overestimates by {:+.0f}%\n".format(a.overestimate_pct),
        "Fig 3b — commands 1/2 overlap for {:.1f} ms".format(
            b.overlap_ns / 1e6),
        format_series(b.watts, label="GPU W"),
        "\nFig 3c — after idle {:.2f} W vs after busy {:.2f} W "
        "({:+.0f}%)".format(c.mean_after_idle, c.mean_after_busy,
                            c.lingering_pct),
    ]) + "\n"
