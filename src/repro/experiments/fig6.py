"""Figure 6: elimination of power entanglement.

For every hardware component, the designated app runs alone and co-runs
with other apps; its energy is observed through psbox and attributed by the
existing per-sample accounting approach.  psbox observations stay
consistent across co-runners; the existing approach's shares drift by tens
of percent.
"""

from dataclasses import dataclass

from repro.accounting import PerSampleUsageAccounting
from repro.analysis.energy import percent_delta
from repro.analysis.report import format_table
from repro.apps.cpu_apps import bodytrack, calib3d, dedup
from repro.apps.dsp_apps import dgemm, monte, sgemm
from repro.apps.gpu_apps import gpu_browser, magic, triangle
from repro.apps.wifi_apps import scp, wget, wifi_browser
from repro.experiments.common import boot, run_until_finished
from repro.sim.clock import MSEC

#: component -> (main app factory, [(co-run label, [co factories]), ...])
FIG6_SCENARIOS = {
    "cpu": (
        lambda k: calib3d(k, iterations=40),
        [
            ("w/ body", [lambda k: bodytrack(k, iterations=300)]),
            ("w/ dedup", [lambda k: dedup(k, iterations=400)]),
        ],
    ),
    "dsp": (
        lambda k: dgemm(k, iterations=16),
        [
            ("w/ sgemm", [lambda k: sgemm(k, iterations=60)]),
            ("w/ monte+sgemm", [lambda k: monte(k, iterations=200),
                                lambda k: sgemm(k, iterations=60)]),
        ],
    ),
    "gpu": (
        gpu_browser,
        [
            ("w/ magic", [lambda k: magic(k, frames=120)]),
            ("w/ triangle", [lambda k: triangle(k, draws=600)]),
        ],
    ),
    "wifi": (
        wifi_browser,
        [
            ("w/ scp", [scp]),
            ("w/ wget", [wget]),
        ],
    ),
}


@dataclass
class Fig6Cell:
    label: str
    energy_j: float
    delta_pct: float          # vs the "running alone" energy
    duration_s: float
    times: object = None      # sampled trace (optional)
    watts: object = None


@dataclass
class Fig6Row:
    component: str
    alone: Fig6Cell
    psbox_cells: list
    baseline_cells: list

    @property
    def max_psbox_delta(self):
        return max(abs(c.delta_pct) for c in self.psbox_cells)

    @property
    def max_baseline_delta(self):
        return max(abs(c.delta_pct) for c in self.baseline_cells)


def _run_scenario(component, main_factory, co_factories, use_psbox, seed,
                  horizon_s, keep_trace, trace_dt):
    platform, kernel = boot(seed=seed)
    app = main_factory(kernel)
    box = None
    if use_psbox:
        box = app.create_psbox((component,))
        box.enter()
    others = [factory(kernel) for factory in co_factories]
    finished_at = run_until_finished(platform, app, horizon_s=horizon_s)
    if use_psbox:
        energy = box.vmeter.energy(0, finished_at)
        trace = (box.vmeter.samples(component, 0, finished_at, trace_dt)
                 if keep_trace else (None, None))
    else:
        acct = PerSampleUsageAccounting(platform, component)
        ids = [app.id] + [o.id for o in others]
        energy = acct.energies(ids, 0, finished_at)[app.id]
        if keep_trace:
            times, shares = acct.shares(ids, 0, finished_at, dt=trace_dt)
            trace = (times, shares[app.id])
        else:
            trace = (None, None)
    kernel.shutdown()
    return energy, finished_at / 1e9, trace


def run_fig6_row(component, seed=3, horizon_s=14, keep_traces=False,
                 trace_dt=MSEC):
    """One row of Figure 6 (five cells x two mechanisms)."""
    main_factory, coruns = FIG6_SCENARIOS[component]

    alone_e, alone_t, alone_trace = _run_scenario(
        component, main_factory, [], True, seed, horizon_s, keep_traces,
        trace_dt)
    alone = Fig6Cell("alone", alone_e, 0.0, alone_t,
                     times=alone_trace[0], watts=alone_trace[1])

    psbox_cells = []
    for label, co in coruns:
        e, t, trace = _run_scenario(component, main_factory, co, True, seed,
                                    horizon_s, keep_traces, trace_dt)
        psbox_cells.append(Fig6Cell(label, e, percent_delta(e, alone_e), t,
                                    times=trace[0], watts=trace[1]))

    base_alone_e, _t, _tr = _run_scenario(
        component, main_factory, [], False, seed, horizon_s, False, trace_dt)
    baseline_cells = []
    for label, co in coruns:
        e, t, trace = _run_scenario(component, main_factory, co, False, seed,
                                    horizon_s, keep_traces, trace_dt)
        baseline_cells.append(
            Fig6Cell(label, e, percent_delta(e, base_alone_e), t,
                     times=trace[0], watts=trace[1]))

    return Fig6Row(component=component, alone=alone,
                   psbox_cells=psbox_cells, baseline_cells=baseline_cells)


def result(args=None):
    """The ``fig6`` subcommand: one row per component."""
    return [run_fig6_row(component) for component in FIG6_SCENARIOS]


def render(result):
    tables = []
    for row in result:
        rows = [["alone", "{:.0f}".format(row.alone.energy_j * 1000), "--"]]
        for mechanism, cells in (("psbox ", row.psbox_cells),
                                 ("existing ", row.baseline_cells)):
            rows += [[mechanism + cell.label,
                      "{:.0f}".format(cell.energy_j * 1000),
                      "{:+.1f}%".format(cell.delta_pct)] for cell in cells]
        tables.append(format_table(
            ["scenario", "mJ", "delta"], rows,
            title="Fig 6 — {} row".format(row.component)))
    return "".join(table + "\n\n" for table in tables)
