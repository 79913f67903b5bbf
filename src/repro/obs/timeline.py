"""The virtual-time series store: labeled series of ``(t_ns, value)``.

Metrics (:mod:`repro.obs.metrics`) answer "how much, in total"; the
timeline answers "when, and how it evolved".  A :class:`Series` keeps
every ``(t_ns, value)`` sample of its run, oldest first, so a window
query or an export sees the whole run.

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
SLO rules fire mid-run, at the virtual time the breach happens.
"""


def canonical_labels(labels):
    """A label dict as the sorted ``((key, value), ...)`` identity tuple."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_key(name, labels):
    """A series' identity text, ``name{k=v,...}``, from its sorted
    ``((key, value), ...)`` label pairs; just ``name`` without labels."""
    if not labels:
        return name
    return "{}{{{}}}".format(name, ",".join(
        "{}={}".format(k, v) for k, v in labels))


class Series:
    """One labeled series: every ``(t_ns, value)`` sample, oldest first."""

    __slots__ = ("name", "labels", "disordered", "_points")

    #: always 0: a series keeps every sample (the exports report it)
    dropped = 0

    def __init__(self, name, labels=()):
        self.name = name
        self.labels = canonical_labels(dict(labels))
        self.disordered = 0
        self._points = []

    def append(self, t_ns, value):
        """Record one sample.

        Samples are expected in nondecreasing virtual-time order; an
        out-of-order timestamp is still kept (the sampler knows best)
        but counted in ``disordered`` — a miswired sampler shows up in
        the exports instead of silently corrupting window queries.
        """
        t_ns = int(t_ns)
        points = self._points
        if points and t_ns < points[-1][0]:
            self.disordered += 1
        points.append((t_ns, float(value)))

    def points(self):
        """The ``(t_ns, value)`` samples, oldest first."""
        return list(self._points)

    def times(self):
        return [t for t, _v in self._points]

    def values(self):
        return [v for _t, v in self._points]

    def last(self):
        """The newest sample, or None when empty."""
        return self._points[-1] if self._points else None

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __repr__(self):
        return "Series({!r}, {} points)".format(self.key, len(self._points))

    @property
    def key(self):
        """The series identity: name plus canonical labels."""
        return series_key(self.name, self.labels)


class Timeline:
    """Create-on-first-use store of labeled series for one session."""

    def __init__(self):
        self._series = {}        # (name, labels tuple) -> Series
        self._subscribers = []

    def series(self, name, **labels):
        """The series for ``(name, labels)``, created on first use."""
        key = (name, canonical_labels(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Series(name, labels=key[1])
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

    def total_disordered(self):
        return sum(series.disordered for series in self._series.values())

    def __len__(self):
        return len(self._series)

    def __contains__(self, name):
        return any(key[0] == name for key in self._series)
