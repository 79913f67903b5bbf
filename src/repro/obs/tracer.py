"""Span-based tracing over virtual time.

A span is a named interval of *simulation* time with a category, a
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
  id in its own state: the SMP scheduler keeps each CPU balloon's span
  and passes it to the IPI-shootdown spans it begins, which the remote
  cores close microseconds later.  No span is inherited from the event
  that scheduled a handler, so the simulator carries no trace context and
  its event loop never reads the tracer.

Span lifetimes are explicit: ``begin`` returns the span's id, ``end``
closes it.  Spans that never close (a dropped shootdown IPI, a drain that
never converges) stay open and are flagged ``unfinished`` by the exporter
— an unclosed span *is* the story of a liveness bug.

Records are rows of typed columns, not objects: a span is its start and
end times (end is -1 while open), its parent's id (0 for a root), its
site and its args; an instant or a sample is its time, site and args.
Times are integer ns.  A *site* is one distinct ``(name, cat, track)``
(a sample's cat is ""), kept once per tracer in :attr:`Tracer.sites`.
Args are kept once per distinct ``repr`` in :attr:`Tracer.args_table`,
so a governor's thousands of identical context-switch instants hold one
dict between them.  ``repr`` is the key because it tells 1, 1.0, True,
"1", 0.0 and -0.0 apart at any depth, where dict equality merges them.
Recorded args are read-only: ``end`` with args records a new merged
dict, and no reader writes into one.  ``spans``, ``instants`` and
``samples`` build read-only views of the rows, for tests and readers off
the hot path; the trace exporter reads the columns themselves.
"""

from array import array


class Span:
    """A read-only view of one open or closed span.

    ``args`` is the tracer's shared dict for this span: read it, never
    write into it.
    """

    __slots__ = ("id", "parent_id", "name", "cat", "track", "start", "end",
                 "args")

    def __init__(self, span_id, parent_id, name, cat, track, start, end,
                 args):
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = end
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
    """Collects spans, instant events, and counter samples for one run.

    The columns are public for the trace exporter and read-only: span
    ``id`` - 1 is its row in ``span_start``, ``span_end``,
    ``span_parent``, ``span_site`` and ``span_args``; instants and
    samples keep ``*_t``, ``*_site`` and ``*_args`` in record order.
    """

    def __init__(self, sim):
        self.sim = sim
        self.enabled = True
        self.span_start = array("q")
        self.span_end = array("q")       # -1 while the span is open
        self.span_parent = array("q")    # the parent's id, 0 for a root
        self.span_site = array("i")
        self.span_args = array("i")
        self.instant_t = array("q")
        self.instant_site = array("i")
        self.instant_args = array("i")
        self.sample_t = array("q")
        self.sample_site = array("i")
        self.sample_args = array("i")
        self.sites = []          # (name, cat, track), by site index
        self._site_index = {}    # (name, cat, track) -> site index
        self.args_table = []     # args dicts, by args index
        self._args_index = {}    # repr(args) -> args index

    def _indices(self, key, args):
        """The site index of ``key`` and the args index of ``args``, each
        added to its table on first use."""
        site = self._site_index.get(key)
        if site is None:
            site = self._site_index[key] = len(self.sites)
            self.sites.append(key)
        text = repr(args)
        index = self._args_index.get(text)
        if index is None:
            index = self._args_index[text] = len(self.args_table)
            self.args_table.append(args)
        return site, index

    # -- spans ---------------------------------------------------------------------

    def begin(self, name, cat="", track="", parent=None, **args):
        """Open a span at the current virtual time; returns its id (>= 1).

        ``parent`` is the id of the span's causal parent, None for a
        root; a span with no ``track`` takes its parent's.  Returns None
        (a no-op handle for ``end`` and ``parent=``) when tracing is
        disabled.
        """
        if not self.enabled:
            return None
        if parent is not None and not track:
            track = self.sites[self.span_site[parent - 1]][2]
        site, index = self._indices((name, cat, track), args)
        self.span_start.append(self.sim.now)
        self.span_end.append(-1)
        self.span_parent.append(0 if parent is None else parent)
        self.span_site.append(site)
        self.span_args.append(index)
        return len(self.span_end)

    def end(self, span, **args):
        """Close the span with id ``span``; None or a closed span is a no-op.

        ``args`` merge into the span's as ``dict.update`` would, into a new
        dict (shared like any recorded args): the begin's dict, which other
        records may hold, is never written.
        """
        if span is None:
            return
        row = span - 1
        if self.span_end[row] != -1:
            return
        self.span_end[row] = self.sim.now
        if args:
            merged = {**self.args_table[self.span_args[row]], **args}
            text = repr(merged)
            index = self._args_index.get(text)
            if index is None:
                index = self._args_index[text] = len(self.args_table)
                self.args_table.append(merged)
            self.span_args[row] = index

    # -- instants and counter samples ---------------------------------------------

    def instant(self, name, cat="", track="", **args):
        """Record a zero-duration event at the current virtual time."""
        if not self.enabled:
            return
        site, index = self._indices((name, cat, track), args)
        self.instant_t.append(self.sim.now)
        self.instant_site.append(site)
        self.instant_args.append(index)

    def sample(self, name, track="", **values):
        """Record a counter-track sample (rendered as a graph in Perfetto)."""
        if not self.enabled:
            return
        site, index = self._indices((name, "", track), values)
        self.sample_t.append(self.sim.now)
        self.sample_site.append(site)
        self.sample_args.append(index)

    # -- views ----------------------------------------------------------------------

    def span(self, span_id):
        """A read-only :class:`Span` view of the span with this id."""
        row = span_id - 1
        name, cat, track = self.sites[self.span_site[row]]
        end = self.span_end[row]
        return Span(span_id, self.span_parent[row] or None, name, cat, track,
                    self.span_start[row], None if end == -1 else end,
                    self.args_table[self.span_args[row]])

    @property
    def spans(self):
        """Every span's view, in begin order."""
        return [self.span(span_id) for span_id in range(1, len(self) + 1)]

    def _instant(self, row):
        name, cat, track = self.sites[self.instant_site[row]]
        return (self.instant_t[row], track, name, cat,
                self.args_table[self.instant_args[row]])

    @property
    def instants(self):
        """``(t, track, name, cat, args)`` of every instant, in order."""
        return [self._instant(row) for row in range(len(self.instant_t))]

    def instants_tail(self, n):
        """The last ``n`` instants (as :attr:`instants` holds them)."""
        count = len(self.instant_t)
        return [self._instant(row) for row in range(max(count - n, 0), count)]

    @property
    def samples(self):
        """``(t, track, name, values)`` of every sample, in order."""
        sites = self.sites
        table = self.args_table
        return [(t, sites[site][2], sites[site][0], table[index])
                for t, site, index in zip(self.sample_t, self.sample_site,
                                          self.sample_args)]

    # -- introspection --------------------------------------------------------------

    def open_spans(self):
        return [span for span in self.spans if not span.closed]

    def unfinished_count(self):
        """Spans still open right now — at trace end, each is a finding."""
        return self.span_end.count(-1)

    def find(self, name=None, cat=None):
        """Closed-or-open spans matching a name and/or category."""
        return [
            span for span in self.spans
            if (name is None or span.name == name)
            and (cat is None or span.cat == cat)
        ]

    def children_of(self, span):
        """The spans whose parent is the span with id ``span``."""
        return [s for s in self.spans if s.parent_id == span]

    def __len__(self):
        return len(self.span_end)
