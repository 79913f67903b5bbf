"""Span-based tracing over virtual time.

A :class:`Span` is a named interval of *simulation* time with a category, a
display track, structured arguments, and an optional parent — the causal
structure the exporters turn into a Chrome-trace/Perfetto timeline.  Three
properties make the tracer safe to leave in kernel code:

* **read-only** — the tracer never schedules events and never draws RNG, so
  an enabled tracer observes a run without perturbing it (the differential
  tests assert bit-identical fingerprints with tracing on, off, and absent);
* **zero-cost when off** — components guard every hook with
  ``obs = self.sim.obs`` / ``if obs is not None``; with no session installed
  an instrumentation point is one attribute read and a branch;
* **explicit parents** — a span's parent is the ``parent=`` its site
  passes, or it is a root.  A component that nests work holds the parent's
  handle in its own state: the SMP scheduler keeps each CPU balloon's span
  and passes it to the IPI-shootdown spans it begins, which the remote
  cores close microseconds later.  No span is inherited from the event
  that scheduled a handler, so the simulator carries no trace context and
  its event loop never reads the tracer.

Span lifetimes are explicit: ``begin`` returns a handle, ``end`` closes it.
Spans that never close (a dropped shootdown IPI, a drain that never
converges) stay open and are flagged ``unfinished`` by the exporter — an
unclosed span *is* the story of a liveness bug.

Records share their args: each span, instant and sample holds the first
dict its tracer recorded with the same ``repr``, so a governor's thousands
of identical context-switch instants hold one dict between them.  ``repr``
is the key because it tells 1, 1.0, True, "1", 0.0 and -0.0 apart at any
depth, where dict equality merges them.  Recorded args are read-only:
``end`` with args records a new merged dict, and no reader writes into one.
The trace exporter encodes each args object once, keyed by identity.
"""

class Span:
    """One open or closed interval of virtual time.

    ``args`` may be shared with other records of the same tracer: read it,
    never write into it.
    """

    __slots__ = ("id", "parent_id", "name", "cat", "track", "start", "end",
                 "args")

    def __init__(self, span_id, parent_id, name, cat, track, start, args):
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = None
        self.args = args

    @property
    def closed(self):
        return self.end is not None

    @property
    def duration(self):
        """Span length in ns (None while still open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def __repr__(self):
        state = "[{}..{}]".format(self.start, self.end) if self.closed \
            else "[{}..".format(self.start)
        return "Span({}, {!r}, {})".format(self.id, self.name, state)


class Tracer:
    """Collects spans, instant events, and counter samples for one run."""

    def __init__(self, sim):
        self.sim = sim
        self.enabled = True
        self.spans = []       # every Span, in begin order (closed in place)
        self.instants = []    # (t, track, name, cat, args)
        self.samples = []     # (t, track, name, values) counter-track points
        self._next_id = 1
        # repr(args) -> the first args dict recorded with that text
        self._args = {}

    # -- spans ---------------------------------------------------------------------

    def begin(self, name, cat="", track="", parent=None, **args):
        """Open a span at the current virtual time; returns its handle.

        ``parent`` is the span's causal parent, None for a root; a span
        with no ``track`` takes its parent's.  The span's ``args`` is the
        tracer's shared dict for this ``repr``: read-only.  Returns None
        (a no-op handle) when tracing is disabled.
        """
        if not self.enabled:
            return None
        span_id = self._next_id
        self._next_id = span_id + 1
        span = Span(
            span_id,
            parent.id if parent is not None else None,
            name, cat, track or (parent.track if parent is not None else ""),
            self.sim.now, self._args.setdefault(repr(args), args),
        )
        self.spans.append(span)
        return span

    def end(self, span, **args):
        """Close a span; None is a no-op.

        ``args`` merge into the span's as ``dict.update`` would, into a new
        dict (shared like any recorded args): the begin's dict, which other
        records may hold, is never written.
        """
        if span is None or span.end is not None:
            return
        span.end = self.sim.now
        if args:
            merged = {**span.args, **args}
            span.args = self._args.setdefault(repr(merged), merged)

    # -- instants and counter samples ---------------------------------------------

    def instant(self, name, cat="", track="", **args):
        """Record a zero-duration event at the current virtual time.

        The recorded args dict is shared (see :meth:`begin`): read-only.
        """
        if not self.enabled:
            return
        self.instants.append((self.sim.now, track, name, cat,
                              self._args.setdefault(repr(args), args)))

    def sample(self, name, track="", **values):
        """Record a counter-track sample (rendered as a graph in Perfetto).

        The recorded values dict is shared (see :meth:`begin`): read-only.
        """
        if not self.enabled:
            return
        self.samples.append((self.sim.now, track, name,
                             self._args.setdefault(repr(values), values)))

    # -- introspection --------------------------------------------------------------

    def open_spans(self):
        return [span for span in self.spans if not span.closed]

    def unfinished_count(self):
        """Spans still open right now — at trace end, each is a finding."""
        return sum(1 for span in self.spans if span.end is None)

    def find(self, name=None, cat=None):
        """Closed-or-open spans matching a name and/or category."""
        return [
            span for span in self.spans
            if (name is None or span.name == name)
            and (cat is None or span.cat == cat)
        ]

    def children_of(self, span):
        return [s for s in self.spans if s.parent_id == span.id]

    def __len__(self):
        return len(self.spans)

