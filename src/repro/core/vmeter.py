"""The virtual power meter behind every psbox.

While a resource balloon holds the hardware for the psbox, the rail's real
metered power *is* the psbox's power (the app plus its vertical
environment).  Outside those windows the kernel feeds idle-power samples:
"to the app, the hardware appears idle" (§4.1).  Readings are timestamped
with the same clock apps read via ``Kernel.now`` — the paper's
clock_gettime() alignment.
"""

from bisect import bisect_left

import numpy as np


class VirtualPowerMeter:
    """Per-component observation windows over the platform's rails.

    Most components are observed through balloon windows.  Two extension
    components follow §7's special rules instead:

    * ``display`` — OLED power decomposes exactly per app; the meter reads
      the app's own surface-power trace directly (no windows needed);
    * ``gps`` — hardware power is revealed whenever the device is in its
      steady operating state, and hidden (idle-filled) during off/cold
      start, so no app can infer others' GPS usage.
    """

    def __init__(self, platform, components, app_id=None):
        self.platform = platform
        self.components = tuple(components)
        self.app_id = app_id
        self._windows = {comp: [] for comp in self.components}
        self._open_at = {comp: None for comp in self.components}

    # -- window bookkeeping (driven by the psbox manager) ------------------------

    def open_window(self, component, t):
        if self._open_at[component] is None:
            self._open_at[component] = t

    def close_window(self, component, t):
        start = self._open_at[component]
        if start is None:
            return
        self._open_at[component] = None
        if t > start:
            self._windows[component].append((start, t))

    def windows(self, component, t0, t1):
        """Observation windows clipped to [t0, t1), including an open one."""
        if component == "gps" and self.platform.gps is not None:
            return self.platform.gps.operating_windows(t0, t1)
        clipped = []
        windows = self._windows[component]
        # Closed windows are appended in time order and never overlap, so
        # only the last one starting before t0 can reach into [t0, t1), and
        # none starting at or after t1 can.
        for index in range(max(bisect_left(windows, (t0,)) - 1, 0),
                           len(windows)):
            start, end = windows[index]
            if start >= t1:
                break
            lo, hi = max(start, t0), min(end, t1)
            if hi > lo:
                clipped.append((lo, hi))
        start = self._open_at[component]
        if start is not None and t1 > start:
            lo = max(start, t0)
            if t1 > lo:
                clipped.append((lo, t1))
        return clipped

    # -- readings -----------------------------------------------------------------

    def energy(self, t0, t1, component=None):
        """Joules observed over [t0, t1): rail energy inside windows, idle
        power outside."""
        components = [component] if component else self.components
        total = 0.0
        for comp in components:
            if comp == "display":
                total += self._display_energy(t0, t1)
                continue
            joules, covered = self.windowed_energy(comp, t0, t1)
            idle_w = self.platform.idle_power(comp)
            total += joules + idle_w * (t1 - t0 - covered) / 1e9
        return total

    def windowed_energy(self, component, t0, t1):
        """``(joules, covered_ns)`` attributed from the rail over [t0, t1).

        The rail energy falling inside this meter's observation windows and
        the window time covered — the window-attributed share of the rail,
        before idle fill.  This is what energy-conservation checks compare
        against the rail total (``repro.check``).
        """
        rail = self.platform.rails[component]
        joules = 0.0
        covered = 0
        for lo, hi in self.windows(component, t0, t1):
            joules += rail.energy(lo, hi)
            covered += hi - lo
        return joules, covered

    def _display_energy(self, t0, t1):
        if self.app_id is None:
            return 0.0
        return self.platform.display.app_energy(self.app_id, t0, t1)

    def samples(self, component, t0, t1, dt=None):
        """Timestamped power samples over [t0, t1) for one component."""
        meter = self.platform.meter
        dt = dt or meter.sample_interval
        if component == "display":
            trace = self.platform.display.app_traces.get(self.app_id)
            if trace is None:
                times = np.arange(t0, t1, dt, dtype=np.int64)
                return times, np.zeros(len(times))
            return trace.resample(t0, t1, dt)
        times, watts = meter.sample(component, t0, t1, dt)
        idle_w = self.platform.idle_power(component)
        edges = []
        for lo, hi in self.windows(component, t0, t1):
            edges.append(lo)
            edges.append(hi)
        if not edges:
            return times, np.full(len(times), idle_w)
        idx = np.searchsorted(np.asarray(edges, dtype=np.int64), times,
                              side="right")
        inside = idx % 2 == 1
        return times, np.where(inside, watts, idle_w)

    def observed_fraction(self, component, t0, t1):
        """Fraction of [t0, t1) covered by observation windows."""
        if t1 <= t0:
            return 0.0
        covered = sum(hi - lo for lo, hi in self.windows(component, t0, t1))
        return covered / (t1 - t0)
