"""Trace containers: piecewise-constant signals and timestamped event logs.

``StepTrace`` is the backbone of power metering.  A hardware component sets a
new value whenever its state changes; between change points the value is
constant.  Resampling and integration are then exact, which is what lets the
in-situ meter model behave like a DAQ without simulating every sample as an
event.
"""

import bisect

import numpy as np


class StepTrace:
    """A right-continuous step function of time.

    ``set(t, v)`` appends a change point; times must be non-decreasing.
    Setting twice at the same instant overwrites (last-writer-wins), which is
    the natural semantics for state changes within one event cascade.
    """

    def __init__(self, initial=0.0, name=""):
        self.name = name
        self._times = [0]
        self._values = [float(initial)]

    def set(self, t, value):
        """Record that the signal takes ``value`` from time ``t`` onward."""
        last = self._times[-1]
        if t < last:
            raise ValueError(
                "trace {!r}: set at t={} before last change t={}".format(
                    self.name, t, last
                )
            )
        value = float(value)
        if t == last:
            self._values[-1] = value
        else:
            self._times.append(t)
            self._values.append(value)

    def add(self, t, delta):
        """Adjust the signal by ``delta`` from time ``t`` onward."""
        # Appends dominate (set() forbids t < last anyway), and for them the
        # value at t IS the last value — skip value_at's bisect entirely.
        if t >= self._times[-1]:
            self.set(t, self._values[-1] + delta)
        else:
            self.set(t, self.value_at(t) + delta)

    def value_at(self, t):
        """Signal value at time ``t`` (right-continuous)."""
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            return self._values[0]
        return self._values[idx]

    @property
    def last_value(self):
        return self._values[-1]

    def __len__(self):
        return len(self._times)

    def segments(self, t0, t1):
        """Yield (start, end, value) covering exactly [t0, t1)."""
        if t1 <= t0:
            return
        idx = max(bisect.bisect_right(self._times, t0) - 1, 0)
        start = t0
        while start < t1:
            value = self._values[idx]
            if idx + 1 < len(self._times):
                end = min(self._times[idx + 1], t1)
            else:
                end = t1
            if end > start:
                yield (start, end, value)
            start = end
            idx += 1

    def _window(self, t0, t1):
        """Change-point index range [lo, hi) covering the interval [t0, t1].

        ``_times[lo]`` is the last change at or before ``t0`` (clamped to the
        first), so the window alone determines every value on the interval.
        """
        lo = bisect.bisect_right(self._times, t0) - 1
        if lo < 0:
            lo = 0
        hi = bisect.bisect_right(self._times, t1)
        return lo, hi

    def integrate(self, t0, t1):
        """Integral of the signal over [t0, t1) in value*nanoseconds.

        For a power trace in watts, divide by 1e9 to get joules.
        """
        if t1 <= t0:
            return 0.0
        lo, hi = self._window(t0, t1)
        if hi - lo <= 32:
            # Few segments: the Python loop beats numpy array setup.  It
            # forms ``segments``' products in its order: change points are
            # strictly increasing, so every inner width is positive and
            # only the last segment can be empty.
            times = self._times
            values = self._values
            total = 0.0
            start = t0
            for idx in range(lo, hi - 1):
                end = times[idx + 1]
                total += values[idx] * (end - start)
                start = end
            if t1 > start:
                total += values[hi - 1 if hi > lo else lo] * (t1 - start)
            return total
        # Segment i runs [starts[i], ends[i]) with value vals[i]; the outer
        # boundaries are clipped to the query window.  Widths stay int64 so
        # ns arithmetic is exact; the dot upcasts them.
        edge = np.asarray(self._times[lo:hi], dtype=np.int64)
        vals = np.asarray(self._values[lo:hi], dtype=np.float64)
        starts = np.empty(hi - lo, dtype=np.int64)
        starts[0] = t0
        starts[1:] = edge[1:]
        ends = np.empty(hi - lo, dtype=np.int64)
        ends[:-1] = edge[1:]
        ends[-1] = t1
        return float(np.dot(vals, ends - starts))

    def resample(self, t0, t1, dt):
        """Sample the signal on the uniform grid t0, t0+dt, ... (< t1).

        Returns ``(times, values)`` numpy arrays; point samples of the step
        function, the way a DAQ ADC would observe an (ideal) rail signal.
        Converts only the change points inside the query window, so periodic
        meter reads stay O(window) even against a long trace history.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        times = np.arange(t0, t1, dt, dtype=np.int64)
        lo, hi = self._window(t0, t1)
        change_times = np.asarray(self._times[lo:hi], dtype=np.int64)
        values = np.asarray(self._values[lo:hi], dtype=np.float64)
        idx = np.searchsorted(change_times, times, side="right") - 1
        idx = np.clip(idx, 0, len(values) - 1)
        return times, values[idx]

    def mean(self, t0, t1):
        """Time-weighted mean over [t0, t1)."""
        if t1 <= t0:
            raise ValueError("empty interval")
        return self.integrate(t0, t1) / (t1 - t0)


def _view(record):
    """The ``(t, kind, payload)`` triple of one flat record, payload fresh."""
    shape = record[1]
    return record[0], shape[0], dict(zip(shape[1:], record[2:]))


def _field(record, key):
    """A flat record's value of ``key``; None if it has no such field, as
    ``payload.get`` reads."""
    shape = record[1]
    for i in range(1, len(shape)):
        if shape[i] == key:
            return record[i + 1]
    return None


def _last(records, n):
    """The last ``n`` items of a list, oldest first."""
    return records[-n:] if n > 0 else []


class EventTrace:
    """A flat, append-only log of timestamped records.

    A record is one flat tuple ``(t, shape, *values)``: ``shape`` is
    ``(kind, field, ...)``, a constant the logging site holds, and the
    values follow its fields in order.  Used for scheduling decisions,
    command dispatch/completion, packet activity — anything the
    experiments later need to slice.  Readers see ``(t, kind, payload)``
    triples whose payload is a fresh dict of the record's fields: the log
    keeps no dict per record, so a long boot's logs cost one tuple per
    record and give the cyclic collector nothing to chase.
    """

    #: always 0: the log keeps every record (log stats report it beside
    #: ``len``)
    dropped = 0

    def __init__(self, name=""):
        self.name = name
        self._records = []
        self._subscribers = []

    def add(self, record):
        """Append one record ``(t, (kind, field, ...), *values)``."""
        self._records.append(record)
        if self._subscribers:
            t, kind, payload = _view(record)
            for fn in tuple(self._subscribers):
                fn(t, kind, payload)

    def subscribe(self, fn):
        """Call ``fn(t, kind, payload)`` on every future record.

        This is the event bus observers (e.g. ``repro.check``) attach to.
        Subscribers run synchronously inside the component that logged, so
        they must be read-only with respect to simulation state.
        """
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn):
        """Remove a subscriber (no-op when not subscribed)."""
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        """``(t, kind, payload)`` per record, oldest first."""
        return map(_view, self._records)

    def tail(self, n):
        """The last ``n`` records as ``(t, kind, payload)``, oldest first."""
        return [_view(record) for record in _last(self._records, n)]

    def _matching(self, kind, t0, t1, match):
        """Flat records of ``kind`` in [t0, t1) whose fields equal ``match``."""
        for record in self._records:
            t = record[0]
            if kind is not None and record[1][0] != kind:
                continue
            if t0 is not None and t < t0:
                continue
            if t1 is not None and t >= t1:
                continue
            if any(_field(record, key) != value
                   for key, value in match.items()):
                continue
            yield record

    def filter(self, kind=None, t0=None, t1=None, **match):
        """Return records matching a kind, time window, and payload fields."""
        return [_view(record)
                for record in self._matching(kind, t0, t1, match)]

    def times(self, kind=None, **match):
        """Timestamps of matching records."""
        return [record[0]
                for record in self._matching(kind, None, None, match)]


class KeptLog:
    """An event log as a holder keeps it once its boot has shut down.

    The name, the retained count, and the last ``tail`` records, flat as
    the log stored them.  It answers ``name``, ``len``, ``dropped`` and
    :meth:`tail` as the log did, since a shut-down boot logs nothing
    more.
    """

    __slots__ = ("name", "_records", "_retained")

    dropped = 0

    def __init__(self, log, tail):
        self.name = log.name
        self._retained = len(log)
        self._records = _last(log._records, tail)

    def __len__(self):
        return self._retained

    def tail(self, n):
        """The last ``n`` kept records as ``(t, kind, payload)``."""
        return [_view(record) for record in _last(self._records, n)]
