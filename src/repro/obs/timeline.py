"""The virtual-time series store: labeled series of ``(t_ns, value)``.

Metrics (:mod:`repro.obs.metrics`) answer "how much, in total"; the
timeline answers "when, and how it evolved".  A :class:`Series` is a
bounded ring of ``(t_ns, value)`` samples — the :class:`~repro.sim.trace
.EventTrace` pattern: a fixed capacity keeps samplers O(1) memory over
arbitrarily long runs, and ``dropped`` counts what the window lost, so
nothing is discarded silently.

Samplers publish through the same ``sim.obs`` guard as the tracer and the
metrics registry (``obs.timeline`` is None unless telemetry was armed), so
a run without telemetry pays one extra branch per already-guarded site and
a run without any session pays exactly the one branch it always did.

Like everything in ``repro.obs``, the store is read-only with respect to
the simulation: recording a sample never schedules an event and never
draws RNG, so telemetry-on runs fingerprint bit-identical to bare ones
(asserted by ``tests/integration/test_differential_matrix.py``).

Subscribers (the :mod:`repro.obs.alerts` engine) see every sample as it is
recorded — streaming evaluation, not post-hoc scans — which is what lets
SLO rules fire mid-run even after the ring has evicted the evidence.
"""

from collections import deque


def canonical_labels(labels):
    """A label dict as the sorted ``((key, value), ...)`` identity tuple."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Series:
    """One labeled series: a bounded ring of ``(t_ns, value)`` samples."""

    __slots__ = ("name", "labels", "capacity", "dropped", "disordered",
                 "_points")

    def __init__(self, name, labels=(), capacity=4096):
        if capacity < 1:
            raise ValueError("series capacity must be >= 1")
        self.name = name
        self.labels = canonical_labels(dict(labels))
        self.capacity = capacity
        self.dropped = 0
        self.disordered = 0
        self._points = deque(maxlen=capacity)

    def append(self, t_ns, value):
        """Record one sample; evicts the oldest when the ring is full.

        Samples are expected in nondecreasing virtual-time order; an
        out-of-order timestamp is still kept (the sampler knows best)
        but counted in ``disordered`` — a miswired sampler shows up in
        the exports instead of silently corrupting window queries.
        """
        t_ns = int(t_ns)
        if self._points:
            if len(self._points) == self.capacity:
                self.dropped += 1
            if t_ns < self._points[-1][0]:
                self.disordered += 1
        self._points.append((t_ns, float(value)))

    def points(self):
        """The retained ``(t_ns, value)`` samples, oldest first."""
        return list(self._points)

    def times(self):
        return [t for t, _v in self._points]

    def values(self):
        return [v for _t, v in self._points]

    def last(self):
        """The newest retained sample, or None when empty."""
        return self._points[-1] if self._points else None

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __repr__(self):
        return "Series({!r}, {} points, {} dropped)".format(
            self.key, len(self._points), self.dropped)

    @property
    def key(self):
        """The series identity: name plus canonical labels."""
        if not self.labels:
            return self.name
        return "{}{{{}}}".format(self.name, ",".join(
            "{}={}".format(k, v) for k, v in self.labels))


class Timeline:
    """Create-on-first-use store of labeled series for one session."""

    def __init__(self, capacity=4096):
        self.capacity = capacity
        self._series = {}        # (name, labels tuple) -> Series
        self._subscribers = []

    def series(self, name, **labels):
        """The series for ``(name, labels)``, created on first use."""
        key = (name, canonical_labels(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Series(
                name, labels=key[1], capacity=self.capacity)
        return series

    def record(self, name, t_ns, value, **labels):
        """Append one sample and notify subscribers; returns the series."""
        series = self.series(name, **labels)
        self.add(series, t_ns, value)
        return series

    def add(self, series, t_ns, value):
        """:meth:`record` into a series a site already holds (one of this
        timeline's: a bound handle), without looking it up again."""
        series.append(t_ns, value)
        if self._subscribers:
            for fn in tuple(self._subscribers):
                fn(series, int(t_ns), float(value))

    def subscribe(self, fn):
        """Call ``fn(series, t_ns, value)`` on every future sample.

        Subscribers run synchronously inside the sampler, so they must be
        read-only with respect to simulation state (the alert engine is).
        """
        self._subscribers.append(fn)
        return fn

    def all(self):
        """Every series, sorted by (name, labels) — the export order."""
        return [self._series[key] for key in sorted(self._series)]

    def names(self):
        return sorted({name for name, _labels in self._series})

    def total_dropped(self):
        return sum(series.dropped for series in self._series.values())

    def total_disordered(self):
        return sum(series.disordered for series in self._series.values())

    def __len__(self):
        return len(self._series)

    def __contains__(self, name):
        return any(key[0] == name for key in self._series)
