"""Figure 9 / §6.4: the power-aware VR app.

The rendering task observes its own CPU power inside its psbox (insulated
from the gesture task's input-dependent load) and trades fidelity for
power.  We report: the power trace of rendering-in-psbox vs everything
else, the fidelity range achieved across power budgets, and the power span
(the paper reports 8.9x, 90 mW to 800 mW).
"""

from dataclasses import dataclass

from repro.apps.vr import FIDELITY_LEVELS, VrApp
from repro.experiments.common import boot
from repro.sim.clock import MSEC, SEC


@dataclass
class Fig9Result:
    budgets_w: list
    observed_w: list           # steady-state observed power per budget
    fidelity: list             # steady-state fidelity per budget
    times: object = None       # trace for one representative run
    rendering_watts: object = None
    total_watts: object = None


def _steady_power(vr, t0, t1):
    """Mean observed rendering power over a window (psbox reading)."""
    return vr.psbox.energy(int(t0), int(t1)) / ((t1 - t0) / 1e9)


def run_fig9(seed=17, budgets_w=(0.10, 0.20, 0.35, 0.55, 0.80),
             duration_s=4.0, trace_budget_index=2, dt=MSEC):
    duration = int(duration_s * SEC)
    observed, fidelity = [], []
    trace = (None, None, None)
    for idx, budget in enumerate(budgets_w):
        platform, kernel = boot(seed=seed)
        vr = VrApp(kernel, budget_w=budget, fidelity=3, duration=duration)
        platform.sim.run(until=duration)
        window = (int(duration * 0.6), int(duration * 0.95))
        observed.append(_steady_power(vr, *window))
        fidelity.append(vr.fidelity)
        if idx == trace_budget_index:
            times, render_w = vr.psbox.sample("cpu", 0, duration, dt)
            _t, total_w = platform.meter.sample("cpu", 0, duration, dt)
            trace = (times, render_w, total_w)
        vr.stop()
        kernel.shutdown()
    return Fig9Result(
        budgets_w=list(budgets_w),
        observed_w=observed,
        fidelity=fidelity,
        times=trace[0],
        rendering_watts=trace[1],
        total_watts=trace[2],
    )


def fidelity_power_span(seed=18, duration_s=2.5):
    """Open-loop power at the lowest and highest fidelity (the 8.9x claim)."""
    duration = int(duration_s * SEC)
    span = []
    for level in (0, len(FIDELITY_LEVELS) - 1):
        platform, kernel = boot(seed=seed)
        vr = VrApp(kernel, budget_w=None, fidelity=level, duration=duration)
        platform.sim.run(until=duration)
        window = (int(duration * 0.4), int(duration * 0.95))
        span.append(_steady_power(vr, *window))
        vr.stop()
        kernel.shutdown()
    return span[0], span[1]


def result(args=None):
    """The ``fig9`` subcommand: the open-loop fidelity power span, then the
    closed-loop budget sweep."""
    return fidelity_power_span(), run_fig9()


def render(result):
    (low, high), sweep = result
    lines = ["Fig 9 — fidelity span {:.0f}..{:.0f} mW = {:.1f}x".format(
        low * 1000, high * 1000, high / low)]
    lines += ["  budget {:.2f} W -> observed {:.3f} W at fidelity {}".format(
        budget, watts, level) for budget, watts, level
        in zip(sweep.budgets_w, sweep.observed_w, sweep.fidelity)]
    return "\n".join(lines) + "\n"
