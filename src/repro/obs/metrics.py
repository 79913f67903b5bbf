"""Metrics: counters, gauges, and weighted histograms behind one registry.

Kernel and hardware modules publish into the registry through the same
``sim.obs`` guard as the tracer, so an uninstrumented run pays one attribute
read per site.  Metrics are plain Python numbers — no RNG, no events — so a
live registry never perturbs the simulation.

Histograms are *weight-aware*: ``observe(value, weight=...)`` lets a module
weight a sample by the virtual time it was in effect (OPP residency, drain
idle fractions), which makes quantiles time-weighted rather than
change-point-weighted.  Unweighted observations (latencies) default to
weight 1.
"""

import bisect
from itertools import accumulate


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n


class Gauge:
    """A last-writer-wins value that also tracks its min/max envelope."""

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name):
        self.name = name
        self.value = None
        self.min = None
        self.max = None
        self.updates = 0

    def set(self, value):
        value = float(value)
        self.value = value
        # what min()/max() keep, compared inline: the old bound stays
        # unless the value beats it (so a NaN never replaces a bound)
        low = self.min
        if low is None or value < low:
            self.min = value
        high = self.max
        if high is None or value > high:
            self.max = value
        self.updates += 1


class Histogram:
    """Weighted sample distribution with exact quantiles.

    Keeps raw (value, weight) pairs — the simulations this library runs
    record at most a few hundred thousand observations, and exact quantiles
    beat sketch accuracy for reproduction work.  ``merge_from`` concatenates
    raw samples, so cross-run merges stay exact too.
    """

    __slots__ = ("name", "_values", "_weights", "count", "total", "wtotal",
                 "min", "max")

    def __init__(self, name):
        self.name = name
        self._values = []
        self._weights = []
        self.count = 0
        self.total = 0.0     # sum of value * weight
        self.wtotal = 0.0    # sum of weights
        self.min = None
        self.max = None

    def observe(self, value, weight=1.0):
        value = float(value)
        weight = float(weight)
        if weight <= 0.0:
            return
        self._values.append(value)
        self._weights.append(weight)
        self.count += 1
        self.total += value * weight
        self.wtotal += weight
        low = self.min
        if low is None or value < low:
            self.min = value
        high = self.max
        if high is None or value > high:
            self.max = value

    @property
    def mean(self):
        return self.total / self.wtotal if self.wtotal else None

    def quantiles(self, qs):
        """Weighted quantiles, one per ``q`` in the sequence ``qs``: each
        the smallest value covering fraction ``q``.

        One sort serves them all, and nothing is kept after.  An
        out-of-range ``q`` raises even on an empty histogram (the
        validity of the question does not depend on the data).
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError("quantile must be in [0, 1]")
        if not self._values:
            return [None] * len(qs)
        pairs = sorted(zip(self._values, self._weights))
        cum = list(accumulate(weight for _value, weight in pairs))
        last = len(pairs) - 1
        return [pairs[min(bisect.bisect_left(cum, q * self.wtotal), last)][0]
                for q in qs]

    def quantile(self, q):
        """Weighted quantile: the smallest value covering fraction ``q``."""
        return self.quantiles((q,))[0]

    def merge_from(self, other):
        for value, weight in zip(other._values, other._weights):
            self.observe(value, weight)


class MetricsRegistry:
    """Create-on-first-use registry of named metrics."""

    QUANTILES = (0.5, 0.9, 0.99)

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    # -- handles (create on demand) ------------------------------------------------

    def counter(self, name):
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name):
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name):
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

    # -- one-call conveniences (sites that bind no handle use these) -----------------
    # Each looks its metric up inline: one frame, not a handle call and a
    # method call on top.

    def inc(self, name, n=1):
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        metric.value += n

    def set(self, name, value):
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        metric.set(value)

    def observe(self, name, value, weight=1.0):
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        metric.observe(value, weight)

    # -- export ---------------------------------------------------------------------

    def merge_from(self, other):
        """Fold another registry in: counters add, gauges take the other's
        latest, histograms concatenate raw samples."""
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            if gauge.updates:
                mine = self.gauge(name)
                mine.set(gauge.min)
                mine.set(gauge.max)
                mine.set(gauge.value)
        for name, hist in other.histograms.items():
            self.histogram(name).merge_from(hist)

    def snapshot(self):
        """All metrics as one JSON-ready dict."""
        snap = {
            "counters": {
                name: counter.value
                for name, counter in sorted(self.counters.items())
            },
            "gauges": {
                name: {"value": gauge.value, "min": gauge.min,
                       "max": gauge.max}
                for name, gauge in sorted(self.gauges.items())
            },
            "histograms": {},
        }
        for name, hist in sorted(self.histograms.items()):
            entry = {
                "count": hist.count,
                "mean": hist.mean,
                "min": hist.min,
                "max": hist.max,
            }
            for q, value in zip(self.QUANTILES,
                                hist.quantiles(self.QUANTILES)):
                entry["p{:g}".format(q * 100)] = value
            snap["histograms"][name] = entry
        return snap

    def __len__(self):
        return len(self.counters) + len(self.gauges) + len(self.histograms)
