"""Controller decision telemetry: a fixed-size ring, exportable as JSON.

The daemon records one entry per node per tick.  A bounded ring keeps the
daemon's memory constant no matter how long the simulation runs; analysis
code exports the retained window with :meth:`TelemetryRing.to_json`.
"""

import json
from collections import deque


class TelemetryRing:
    """Fixed-capacity ring of controller decisions.

    A bounded ``deque``, like :class:`~repro.sim.trace.EventTrace` and
    :class:`~repro.obs.timeline.Series`: a full ring evicts its oldest
    entry on append, and ``dropped`` counts the evictions.
    """

    FIELDS = ("t", "node", "measured_w", "budget_w", "action", "level")

    def __init__(self, capacity=4096):
        if capacity < 1:
            raise ValueError("telemetry ring needs capacity >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._entries = deque(maxlen=capacity)

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        """The retained entries, oldest first (``records()`` unfiltered)."""
        return iter(self._entries)

    def record(self, t, node, measured_w, budget_w, action, level):
        """Append one decision; overwrites the oldest entry when full."""
        entry = {
            "t": int(t),
            "node": node,
            "measured_w": round(float(measured_w), 6),
            "budget_w": None if budget_w is None else round(float(budget_w), 6),
            "action": action,
            "level": round(float(level), 6),
        }
        if len(self._entries) == self.capacity:
            self.dropped += 1
        self._entries.append(entry)
        return entry

    def records(self, node=None, t0=None, t1=None):
        """Retained entries, oldest first, optionally filtered."""
        return [
            entry for entry in self._entries
            if (node is None or entry["node"] == node)
            and (t0 is None or entry["t"] >= t0)
            and (t1 is None or entry["t"] < t1)
        ]

    def latest(self, node=None):
        """The newest retained entry (for ``node``, if given), or None."""
        for entry in reversed(self._entries):
            if node is None or entry["node"] == node:
                return entry
        return None

    def to_json(self, indent=None):
        """The retained window as a JSON array string."""
        return json.dumps(self.records(), indent=indent, sort_keys=True)

    def clear(self):
        self._entries.clear()
        self.dropped = 0
