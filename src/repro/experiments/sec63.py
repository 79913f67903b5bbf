"""Section 6.3 robustness test: extreme GPU contention.

browser (in psbox) co-runs with triangle, a synthetic saturating stressor.
The paper: browser's GPU throughput drops ~4x from excessive draining, yet
triangle loses only ~1% — the loss is confined to the sandboxed app.
"""

from dataclasses import dataclass

from repro.apps.gpu_apps import triangle
from repro.experiments.common import boot
from repro.sim.clock import SEC


def _looping_browser(kernel, pages=10_000):
    """The Fig-6 browser page load, repeated forever (for rate measurement)."""
    from repro.apps.base import App
    from repro.kernel.actions import Sleep, SubmitAccel, WaitAll
    from repro.sim.clock import from_msec

    app = App(kernel, "browser")
    raster = ("raster", 1.2e6, 0.80)
    composite = ("composite", 0.8e6, 0.60)
    bursts = [(12, [raster, composite]), (20, [raster, composite])]

    def behavior():
        for _ in range(pages):
            for gap_ms, commands in bursts:
                yield Sleep(from_msec(gap_ms))
                for kind, cycles, power_w in commands:
                    yield SubmitAccel("gpu", kind, cycles, power_w,
                                      wait=False)
                yield WaitAll()
            app.count("pages", 1)

    app.spawn(behavior(), name="browser.render")
    return app


@dataclass
class Sec63Result:
    browser_before: float
    browser_after: float
    triangle_before: float
    triangle_after: float

    @property
    def browser_slowdown(self):
        if self.browser_after == 0:
            return float("inf")
        return self.browser_before / self.browser_after

    @property
    def triangle_loss_pct(self):
        if self.triangle_before == 0:
            return 0.0
        return 100.0 * (self.triangle_before - self.triangle_after) \
            / self.triangle_before


def run_sec63_robustness(seed=21, phase_s=2.5, settle_s=0.5):
    platform, kernel = boot(seed=seed)
    browser = _looping_browser(kernel)
    tri = triangle(kernel, draws=10**6, cycles=50.0e6)
    box = browser.create_psbox(("gpu",))

    settle = int(settle_s * SEC)
    phase = int(phase_s * SEC)
    t1 = settle + phase
    t2 = t1 + settle
    t3 = t2 + phase
    platform.sim.at(t1, box.enter)
    platform.sim.run(until=t3)

    result = Sec63Result(
        browser_before=browser.rate("gpu_commands", settle, t1),
        browser_after=browser.rate("gpu_commands", t2, t3),
        triangle_before=tri.rate("gpu_commands", settle, t1),
        triangle_after=tri.rate("gpu_commands", t2, t3),
    )
    kernel.shutdown()
    return result


def result(args=None):
    return run_sec63_robustness()


def render(result):
    return "Sec 6.3 — browser {:.1f}x slower, triangle {:+.1f}%\n".format(
        result.browser_slowdown, -result.triangle_loss_pct)
