"""Section 6.2: performance impact — latency increases and throughput loss.

Latency: extra submit-to-dispatch wait with psbox active vs without (GPU,
DSP, WiFi) plus the CPU task-shootdown time (IPI round).  Throughput: total
hardware throughput loss from one instance using psbox (reusing Fig 8).
"""

from dataclasses import dataclass

from repro.analysis.metrics import latency_summary
from repro.apps.dsp_apps import dgemm, sgemm
from repro.apps.gpu_apps import cube, magic
from repro.apps.wifi_apps import scp, wget
from repro.experiments.common import boot
from repro.experiments.fig8 import FIG8_SCENARIOS, run_fig8
from repro.kernel.kernel import KernelConfig
from repro.sim.clock import SEC


@dataclass
class LatencyRow:
    component: str
    mean_without_ns: float
    mean_with_ns: float

    @property
    def increase_ns(self):
        return self.mean_with_ns - self.mean_without_ns


def _dispatch_latencies(component, use_psbox, seed, duration):
    platform, kernel = boot(seed=seed)
    if component == "gpu":
        a, b = cube(kernel, frames=10_000), magic(kernel, frames=10_000)
        sched = kernel.gpu_sched
    elif component == "dsp":
        a, b = dgemm(kernel, iterations=10_000), sgemm(kernel,
                                                       iterations=10_000)
        sched = kernel.dsp_sched
    elif component == "wifi":
        a = wget(kernel, total_bytes=10**9)
        b = scp(kernel, total_bytes=10**9)
        sched = kernel.net_sched
    else:
        raise KeyError(component)
    if use_psbox:
        box = a.create_psbox((component,))
        box.enter()
    platform.sim.run(until=duration)
    waits = sched.dispatch_waits()
    kernel.shutdown()
    return latency_summary(waits)


def run_sec62_latency(seed=9, duration=3 * SEC):
    """Per-device dispatch latency without/with one psbox user."""
    rows = []
    for component in ("gpu", "dsp", "wifi"):
        without = _dispatch_latencies(component, False, seed, duration)
        with_box = _dispatch_latencies(component, True, seed, duration)
        rows.append(LatencyRow(component, without["mean"], with_box["mean"]))
    # CPU: the shootdown cost is one IPI round; report the configured IPI
    # delay, which is what every remote core pays at each balloon edge.
    rows.append(LatencyRow("cpu (shootdown)", 0.0,
                           float(KernelConfig().ipi_delay)))
    return rows


@dataclass
class ThroughputLossRow:
    component: str
    total_loss_pct: float
    sandboxed_loss_pct: float
    max_other_loss_pct: float


def run_sec62_throughput(seed=5):
    """Total hardware throughput loss per component (one psbox user)."""
    rows = []
    for component in FIG8_SCENARIOS:
        result = run_fig8(component, seed=seed)
        rows.append(ThroughputLossRow(
            component=component,
            total_loss_pct=result.total_loss_pct,
            sandboxed_loss_pct=result.sandboxed.loss_pct,
            max_other_loss_pct=max(
                (o.loss_pct for o in result.others), default=0.0),
        ))
    return rows


def result(args=None):
    """The ``sec62`` subcommand: latency rows, then throughput rows."""
    return run_sec62_latency(), run_sec62_throughput()


def render(result):
    latency, throughput = result
    lines = ["latency {:<16} {:8.2f} -> {:8.2f} ms".format(
        row.component, row.mean_without_ns / 1e6, row.mean_with_ns / 1e6)
        for row in latency]
    lines += ["throughput {:<6} total loss {:5.1f}%  (sandboxed "
              "{:5.1f}%)".format(row.component, row.total_loss_pct,
                                 row.sandboxed_loss_pct)
              for row in throughput]
    return "\n".join(lines) + "\n"
