"""Figure 8: confinement of throughput loss.

Several instances of the same app co-run; halfway through, one enters its
psbox.  Throughput per instance is compared before vs after: only the
sandboxed instance should lose throughput, the others stay put.
"""

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.apps.cpu_apps import calib3d
from repro.apps.dsp_apps import sgemm
from repro.apps.gpu_apps import cube
from repro.apps.wifi_apps import wget
from repro.experiments.common import boot
from repro.sim.clock import SEC

#: component -> (instance factory, throughput metric, instance count)
FIG8_SCENARIOS = {
    "cpu": (lambda k, i: calib3d(k, name="calib3d{}".format(i),
                                 iterations=10_000), "kb", 3),
    "dsp": (lambda k, i: sgemm(k, name="sgemm{}".format(i),
                               iterations=10_000), "gflop", 3),
    "gpu": (lambda k, i: cube(k, name="cube{}".format(i),
                              frames=100_000), "gpu_commands", 2),
    "wifi": (lambda k, i: wget(k, name="wget{}".format(i),
                               total_bytes=500_000_000), "kb", 2),
}


@dataclass
class Fig8Instance:
    name: str
    sandboxed: bool
    before: float      # throughput before the psbox is entered
    after: float       # throughput after

    @property
    def loss_pct(self):
        if self.before == 0:
            return 0.0
        return 100.0 * (self.before - self.after) / self.before


@dataclass
class Fig8Result:
    component: str
    metric: str
    instances: list

    @property
    def sandboxed(self):
        return next(i for i in self.instances if i.sandboxed)

    @property
    def others(self):
        return [i for i in self.instances if not i.sandboxed]

    @property
    def total_loss_pct(self):
        before = sum(i.before for i in self.instances)
        after = sum(i.after for i in self.instances)
        if before == 0:
            return 0.0
        return 100.0 * (before - after) / before


def run_fig8(component, seed=5, phase_s=2.0, settle_s=0.4):
    """Run one Figure 8 panel; returns before/after throughputs."""
    factory, metric, count = FIG8_SCENARIOS[component]
    platform, kernel = boot(seed=seed)
    apps = [factory(kernel, i + 1) for i in range(count)]
    target = apps[-1]
    box = target.create_psbox((component,))

    settle = int(settle_s * SEC)
    phase = int(phase_s * SEC)
    t1 = settle + phase          # end of the "before" phase
    t2 = t1 + settle             # start of the "after" window
    t3 = t2 + phase

    platform.sim.at(t1, box.enter)
    platform.sim.run(until=t3)

    instances = [
        Fig8Instance(
            name=app.name,
            sandboxed=app is target,
            before=app.rate(metric, settle, t1),
            after=app.rate(metric, t2, t3),
        )
        for app in apps
    ]
    kernel.shutdown()
    return Fig8Result(component=component, metric=metric,
                      instances=instances)


def result(args=None):
    """The ``fig8`` subcommand: one panel per component."""
    return [run_fig8(component) for component in FIG8_SCENARIOS]


def render(result):
    tables = []
    for panel in result:
        rows = [[i.name + ("*" if i.sandboxed else ""),
                 "{:.1f}".format(i.before), "{:.1f}".format(i.after),
                 "{:+.1f}%".format(-i.loss_pct)]
                for i in panel.instances]
        tables.append(format_table(
            ["instance", "before", "after", "change"], rows,
            title="Fig 8 — {}".format(panel.component)))
    return "".join(table + "\n\n" for table in tables)
