"""Shared scaffolding for experiment drivers."""

from repro.hw.platform import Platform
from repro.kernel.kernel import Kernel, KernelConfig
from repro.obs import runtime as obs_runtime
from repro.sim.clock import SEC
from repro.sim.engine import Simulator


def boot(seed=0, config=None, components=None, n_cpu_cores=2):
    """Fresh platform + kernel.

    Inside an observed run (the ``--trace`` / ``--metrics`` /
    ``--telemetry`` CLI flags, see :mod:`repro.obs.runtime`), every booted
    simulator gets an :class:`repro.obs.Obs` session installed; otherwise
    this is a pure no-op and the run stays bit-identical.
    """
    if components is None:
        platform = Platform.full(seed=seed, n_cpu_cores=n_cpu_cores)
    else:
        platform = Platform(Simulator(seed), components=components,
                            n_cpu_cores=n_cpu_cores)
    kernel = Kernel(platform, config=config or KernelConfig())
    obs_runtime.install(platform.sim, kernel=kernel)
    return platform, kernel


def run_until_finished(platform, app, horizon_s=12):
    """Advance the sim until ``app`` finishes (or the horizon trips)."""
    platform.sim.run(until=int(horizon_s * SEC))
    if not app.finished:
        raise RuntimeError(
            "app {!r} did not finish within {}s of simulated time".format(
                app.name, horizon_s
            )
        )
    return app.finished_at
