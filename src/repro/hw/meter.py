"""In-situ power meter: the simulated DAQ.

The paper's prototypes sample four power rails at 100 kHz with a DAQ whose
clock is synchronized to the CPU.  Here rails are exact step functions, so
the meter simply resamples them on a uniform timestamped grid — which is
precisely what an (ideal, noise-free) ADC would capture.  Optional Gaussian
noise is available for robustness experiments.
"""

import numpy as np

from repro.sim.clock import USEC


class PowerMeter:
    """Samples power rails on a uniform grid; timestamps are sim-clock times."""

    #: the metrics a session binds (``obs.instruments[self]``)
    obs_names = {"samples": ("counter", "meter.samples"),
                 "reads": ("counter", "meter.reads")}

    def __init__(self, sim, rails, sample_interval=10 * USEC, noise_w=0.0,
                 rng=None):
        self.sim = sim
        self.rails = dict(rails)
        self.sample_interval = sample_interval
        self.noise_w = noise_w
        self._rng = rng

    def rail(self, name):
        if name not in self.rails:
            raise KeyError(
                "no rail {!r}; rails: {}".format(name, sorted(self.rails))
            )
        return self.rails[name]

    def sample(self, rail_name, t0, t1, dt=None):
        """Return ``(times, watts)`` arrays over [t0, t1).

        An installed fault plan may perturb the returned samples (noise,
        dropout) at the ``meter.sample`` site — samples only; ``energy``
        stays the exact integral, as a real DAQ glitch would not change the
        physical joules drawn.
        """
        if dt is None:
            dt = self.sample_interval
        if dt <= 0:
            raise ValueError(
                "sample interval must be positive, got dt={!r}".format(dt)
            )
        times, watts = self.rail(rail_name).trace.resample(t0, t1, dt)
        if self.noise_w > 0 and self._rng is not None:
            watts = watts + self._rng.normal(0.0, self.noise_w, size=len(watts))
            watts = np.maximum(watts, 0.0)
        plan = self.sim.faults
        if plan is not None:
            watts = plan.sample_noise("meter.sample", watts)
            watts = plan.sample_dropout("meter.sample", watts)
        obs = self.sim.obs
        if obs is not None:
            instruments = obs.instruments[self]
            instruments["samples"].value += len(times)
            instruments["reads"].value += 1
        return times, watts

    def energy(self, rail_name, t0, t1):
        """Exact energy over [t0, t1) in joules (integral, not sample sum)."""
        return self.rail(rail_name).energy(t0, t1)

    def mean_power(self, rail_name, t0, t1):
        return self.rail(rail_name).mean_power(t0, t1)
