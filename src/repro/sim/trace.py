"""Trace containers: piecewise-constant signals and timestamped event logs.

``StepTrace`` is the backbone of power metering.  A hardware component sets a
new value whenever its state changes; between change points the value is
constant.  Resampling and integration are then exact, which is what lets the
in-situ meter model behave like a DAQ without simulating every sample as an
event.
"""

import bisect
from collections import deque

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


class EventTrace:
    """A flat, append-only log of timestamped records.

    Records are (time, kind, payload) tuples; ``payload`` is a dict.  Used
    for scheduling decisions, command dispatch/completion, packet activity —
    anything the experiments later need to slice.

    With ``capacity`` set the log becomes a bounded ring: the oldest records
    are evicted once ``capacity`` is reached and ``dropped`` counts the
    evictions, so long soak runs hold memory constant while analysis code
    can still see (and surface as a metric) how much history it lost.
    Subscribers always see every record — eviction only limits retention.
    """

    def __init__(self, name="", capacity=None):
        if capacity is not None and capacity < 1:
            raise ValueError("trace capacity must be >= 1 (or None)")
        self.name = name
        self.capacity = capacity
        self.dropped = 0
        if capacity is None:
            self.records = []
        else:
            self.records = deque(maxlen=capacity)
        self._subscribers = []

    def log(self, t, kind, **payload):
        if self.capacity is not None and len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append((t, kind, payload))
        if self._subscribers:
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
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def filter(self, kind=None, t0=None, t1=None, **match):
        """Return records matching a kind, time window, and payload fields."""
        out = []
        for t, k, payload in self.records:
            if kind is not None and k != kind:
                continue
            if t0 is not None and t < t0:
                continue
            if t1 is not None and t >= t1:
                continue
            if any(payload.get(key) != value for key, value in match.items()):
                continue
            out.append((t, k, payload))
        return out

    def times(self, kind=None, **match):
        """Timestamps of matching records."""
        return [t for t, _, _ in self.filter(kind=kind, **match)]
