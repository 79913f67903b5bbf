"""Tracer unit tests: span lifecycles, explicit parents, disabled no-ops,
the args every record shares with its equals, and the columnar tracer
against the tuple-and-Span tracer it replaced."""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Obs
from repro.sim.engine import Simulator
from tests.obs.test_export import _ARGS


def _obs(tracing=True):
    sim = Simulator(0)
    return sim, Obs(sim, label="t", tracing=tracing).install()


def test_scoped_spans_nest_within_a_cascade():
    sim, obs = _obs()
    tracer = obs.tracer
    seen = {}

    def handler():
        outer = tracer.begin("outer", cat="c")
        inner = tracer.begin("inner", parent=outer)
        sibling = tracer.begin("sibling")
        seen["outer"] = outer
        seen["sibling"] = sibling
        seen["inner"] = inner
        tracer.end(inner)
        tracer.end(outer)

    sim.call_soon(handler)
    sim.run()
    outer, inner, sibling = (tracer.span(seen[key])
                             for key in ("outer", "inner", "sibling"))
    assert (outer.id, inner.id, sibling.id) == (1, 2, 3)
    assert inner.parent_id == outer.id
    # No parent passed: a root, even while another span is open.
    assert outer.parent_id is None
    assert sibling.parent_id is None
    assert inner.closed and outer.closed
    assert [span.id for span in tracer.children_of(outer.id)] == [inner.id]


def test_span_records_virtual_time():
    sim, obs = _obs()
    handle = {}

    def begin():
        handle["span"] = obs.tracer.begin("work")
        sim.call_later(500, finish)

    def finish():
        obs.tracer.end(handle["span"], outcome="done")

    sim.at(100, begin)
    sim.run()
    span = obs.tracer.span(handle["span"])
    assert span.start == 100
    assert span.end == 600
    assert span.duration == 500
    assert span.args["outcome"] == "done"


def test_span_with_explicit_parent():
    sim, obs = _obs()
    tracer = obs.tracer
    seen = {}

    def begin():
        root = tracer.begin("root", cat="balloon", track="smp")
        seen["root"] = root
        sim.call_later(100, arrive)

    def arrive():
        # Another event: the child names its parent, nothing carries it.
        child = tracer.begin("ipi", parent=seen["root"])
        seen["child"] = child
        tracer.end(child)
        tracer.end(seen["root"])

    sim.call_soon(begin)
    sim.run()
    child = tracer.span(seen["child"])
    assert child.parent_id == seen["root"]
    assert [span.id for span in tracer.children_of(seen["root"])] == [
        child.id]
    # Track inheritance: a child with no track takes its parent's.
    assert child.track == "smp"


def test_unclosed_spans_reported_open():
    sim, obs = _obs()
    tracer = obs.tracer
    sim.call_soon(lambda: tracer.begin("leak"))
    sim.run()
    assert len(tracer.open_spans()) == 1
    assert tracer.open_spans()[0].name == "leak"


def test_end_is_idempotent_and_none_safe():
    sim, obs = _obs()
    tracer = obs.tracer

    def handler():
        span = tracer.begin("once")
        tracer.end(span)
        first_end = tracer.span(span).end
        sim.call_later(100, lambda: tracer.end(span))
        sim.call_later(100, lambda: tracer.end(None))
        handler.first_end = first_end

    sim.call_soon(handler)
    sim.run()
    span = tracer.spans[0]
    assert span.end == handler.first_end == 0


def test_disabled_tracer_records_nothing():
    sim, obs = _obs(tracing=False)
    tracer = obs.tracer

    def handler():
        span = tracer.begin("x")
        assert span is None
        tracer.end(span)
        tracer.instant("i")
        tracer.sample("s", v=1)

    sim.call_soon(handler)
    sim.run()
    assert len(tracer) == 0
    assert tracer.instants == []
    assert tracer.samples == []


def test_find_filters_by_name_and_cat():
    sim, obs = _obs()
    tracer = obs.tracer

    def handler():
        tracer.end(tracer.begin("a", cat="x"))
        tracer.end(tracer.begin("a", cat="y"))
        tracer.end(tracer.begin("b", cat="x"))

    sim.call_soon(handler)
    sim.run()
    assert len(tracer.find("a")) == 2
    assert len(tracer.find(cat="x")) == 2
    assert len(tracer.find("a", "y")) == 1


# -- shared args ---------------------------------------------------------------------

#: one tracer's calls: (kind, args, args given to end); "end" begins a span
#: and ends it with the second args
_CALLS = st.lists(st.tuples(st.sampled_from(["begin", "end", "instant",
                                             "sample"]), _ARGS, _ARGS),
                  max_size=10)


def _record(tracer, kind, args, more):
    """Make one record; returns (args it must hold, a reader of them)."""
    if kind == "instant":
        tracer.instant("i", **args)
        record = tracer.instants[-1]
        return args, lambda: record[4]
    if kind == "sample":
        tracer.sample("s", **args)
        record = tracer.samples[-1]
        return args, lambda: record[3]
    span = tracer.begin("s", **args)
    assert repr(tracer.span(span).args) == repr(args)
    if kind == "end":
        tracer.end(span, **more)
        args = {**args, **more}
    return args, lambda: tracer.span(span).args


@given(_CALLS, _CALLS)
# equal as dicts and as item tuples, different as JSON
@example([("instant", {"a": 1}, {}), ("instant", {"a": 1.0}, {}),
          ("sample", {"a": True}, {}), ("sample", {"a": 0.0}, {}),
          ("begin", {"a": -0.0}, {})], [])
# equal samples; an end with args beside an equal begin
@example([("sample", {"a": 1}, {}), ("sample", {"a": 1}, {}),
          ("begin", {"a": 1}, {}), ("end", {"a": 1}, {"b": 2.5})],
         [("sample", {"a": 1}, {})])
@settings(max_examples=150, deadline=None)
def test_records_keep_their_args_and_share_equal_ones(calls_a, calls_b):
    """Each record holds its own call's exact args; within one tracer two
    records hold the same dict exactly when their reprs are equal, and
    two tracers never share one."""
    records = []
    for calls in (calls_a, calls_b):
        tracer = _obs()[1].tracer
        records += [(tracer, *_record(tracer, *call)) for call in calls]
    for _tracer, args, read in records:
        assert repr(read()) == repr(args)
    for (tracer_a, args_a, read_a), (tracer_b, args_b, read_b) in \
            itertools.combinations(records, 2):
        shared = read_a() is read_b()
        if tracer_a is tracer_b:
            assert shared == (repr(args_a) == repr(args_b))
        else:
            assert not shared


def test_end_with_args_leaves_an_equal_span_alone():
    _sim, obs = _obs()
    tracer = obs.tracer
    kept = tracer.begin("a", core=1)
    ended = tracer.begin("b", core=1)
    shared = tracer.span(kept).args
    assert tracer.span(ended).args is shared
    tracer.end(ended, dropped=True)
    assert tracer.span(ended).args == {"core": 1, "dropped": True}
    assert tracer.span(kept).args is shared and shared == {"core": 1}
    tracer.end(kept)
    assert tracer.span(kept).args is shared and shared == {"core": 1}


def test_repeated_args_cost_no_dict_per_record():
    """Governor-shaped instant + sample pairs over a few distinct args:
    each record costs its row of three columns, 16 bytes, at most 24
    traced bytes with the columns' spare room (~150 with a tuple per
    record, ~280 with a dict per record)."""
    sim = SimpleNamespace(now=0, obs=None)
    tracer = Obs(sim, label="t").install().tracer
    keys = ["app-{}".format(n) for n in range(4)]
    pairs = 10_000
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(pairs):
            sim.now = 1_000_000 + 1_000 * n
            opp = n % 3
            tracer.instant("ctx.switch", cat="governor", track="cpu",
                           key=keys[n % 4], expected=opp, actual=opp)
            tracer.sample("cpu.opp", track="cpu", opp=opp)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(tracer.instants) + len(tracer.samples) == 2 * pairs
    assert grown / (2 * pairs) <= 24


# -- the columnar tracer against the tuple-and-Span tracer it replaced ---------------


class _ModelSpan:
    """A span of the reference tracer: one object per span."""

    def __init__(self, span_id, parent_id, name, cat, track, start, args):
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = None
        self.args = args


class _ModelTracer:
    """The reference: spans as objects, instants and samples as tuples in
    lists, and one args dict per distinct ``repr``."""

    def __init__(self, sim):
        self.sim = sim
        self.enabled = True
        self.spans = []
        self.instants = []    # (t, track, name, cat, args)
        self.samples = []     # (t, track, name, values)
        self._args = {}

    def begin(self, name, cat="", track="", parent=None, **args):
        if not self.enabled:
            return None
        span = _ModelSpan(
            len(self.spans) + 1,
            parent.id if parent is not None else None,
            name, cat, track or (parent.track if parent is not None else ""),
            self.sim.now, self._args.setdefault(repr(args), args))
        self.spans.append(span)
        return span

    def end(self, span, **args):
        if span is None or span.end is not None:
            return
        span.end = self.sim.now
        if args:
            merged = {**span.args, **args}
            span.args = self._args.setdefault(repr(merged), merged)

    def instant(self, name, cat="", track="", **args):
        if self.enabled:
            self.instants.append((self.sim.now, track, name, cat,
                                  self._args.setdefault(repr(args), args)))

    def sample(self, name, track="", **values):
        if self.enabled:
            self.samples.append((self.sim.now, track, name,
                                 self._args.setdefault(repr(values), values)))

    def open_spans(self):
        return [span for span in self.spans if span.end is None]

    def unfinished_count(self):
        return sum(1 for span in self.spans if span.end is None)

    def find(self, name=None, cat=None):
        return [span for span in self.spans
                if (name is None or span.name == name)
                and (cat is None or span.cat == cat)]

    def children_of(self, span):
        return [s for s in self.spans if s.parent_id == span.id]

    def instants_tail(self, n):
        return self.instants[max(len(self.instants) - n, 0):]


_WORDS = st.sampled_from(["", "a", "b"])
_SMALL_ARGS = st.dictionaries(st.sampled_from(["a", "b"]),
                              st.sampled_from([1, 1.0, True, 2, "1"]),
                              max_size=2)
_TRACER_OP = st.one_of(
    # begin; parent is an index into the handles so far, else a root
    st.tuples(st.just("begin"), _WORDS, _WORDS,
              st.sampled_from(["", "smp", "gpu"]), st.integers(-1, 5),
              _SMALL_ARGS),
    # end the handle at this index (None if begun disabled), once or twice
    st.tuples(st.just("end"), st.integers(0, 5), _SMALL_ARGS,
              st.booleans()),
    st.tuples(st.just("end_none"), _SMALL_ARGS),
    st.tuples(st.just("instant"), _WORDS, _WORDS, _WORDS, _SMALL_ARGS),
    st.tuples(st.just("sample"), _WORDS, _WORDS, _SMALL_ARGS),
    st.tuples(st.just("toggle")),
    st.tuples(st.just("advance"), st.sampled_from([0, 1, 250])),
)


def _span_row(span):
    return (span.id, span.parent_id, span.name, span.cat, span.track,
            span.start, span.end, repr(span.args))


def _record_row(record):
    return record[:-1] + (repr(record[-1]),)


def _same_tracers(model, tracer, handles):
    assert [_span_row(s) for s in tracer.spans] == [
        _span_row(s) for s in model.spans]
    assert [_record_row(r) for r in tracer.instants] == [
        _record_row(r) for r in model.instants]
    assert [_record_row(r) for r in tracer.samples] == [
        _record_row(r) for r in model.samples]
    assert tracer.unfinished_count() == model.unfinished_count()
    assert [_span_row(s) for s in tracer.open_spans()] == [
        _span_row(s) for s in model.open_spans()]
    for name in (None, "", "a", "b"):
        for cat in (None, "", "a", "b"):
            assert [_span_row(s) for s in tracer.find(name, cat)] == [
                _span_row(s) for s in model.find(name, cat)]
    for model_span, span_id in handles:
        if span_id is not None:
            assert tracer.span(span_id).id == span_id == model_span.id
            assert [s.id for s in tracer.children_of(span_id)] == [
                s.id for s in model.children_of(model_span)]
    count = len(model.instants)
    for n in (0, 1, count, count + 3):
        assert [_record_row(r) for r in tracer.instants_tail(n)] == [
            _record_row(r) for r in model.instants_tail(n)]
    assert len(tracer.instant_t) == count
    assert len(tracer) == len(model.spans)
    # args with equal repr are one object, and other args are not
    held = ([s.args for s in tracer.spans]
            + [r[-1] for r in tracer.instants + tracer.samples])
    for a, b in itertools.combinations(held, 2):
        assert (a is b) == (repr(a) == repr(b))


@given(st.lists(_TRACER_OP, max_size=25), st.booleans(), st.booleans())
@example([("begin", "a", "a", "smp", -1, {"a": 1}),
          ("begin", "b", "", "", 0, {}),
          ("end", 1, {}, False), ("end", 0, {"a": 2}, True),
          ("instant", "a", "", "", {}), ("instant", "b", "", "", {}),
          ("begin", "b", "b", "", 1, {"a": 1})], True, False)
@settings(max_examples=300, deadline=None)
def test_columns_read_as_the_reference_tracer(ops, enabled, numpy_clock):
    """Every view of the columnar tracer equals the tuple-and-Span
    tracer's after every op: spans with their parents, inherited tracks
    and merged args, instants, samples, open and unfinished spans,
    ``find``, ``children_of`` and instant tails."""
    clock = np.int64 if numpy_clock else int
    sim = SimpleNamespace(now=clock(0), obs=None)
    model = _ModelTracer(sim)
    tracer = Obs(sim, label="t").install().tracer
    model.enabled = tracer.enabled = enabled
    handles = []     # (model span or None, span id or None)
    for op in ops:
        kind = op[0]
        if kind == "begin":
            _kind, name, cat, track, parent, args = op
            model_parent, parent_id = (handles[parent]
                                       if 0 <= parent < len(handles)
                                       else (None, None))
            handles.append((
                model.begin(name, cat, track, model_parent, **args),
                tracer.begin(name, cat, track, parent_id, **args)))
        elif kind == "end":
            _kind, index, args, twice = op
            if index < len(handles):
                model_span, span_id = handles[index]
                for _ in range(1 + twice):
                    model.end(model_span, **args)
                    tracer.end(span_id, **args)
        elif kind == "end_none":
            model.end(None, **op[1])
            tracer.end(None, **op[1])
        elif kind == "instant":
            _kind, name, cat, track, args = op
            model.instant(name, cat, track, **args)
            tracer.instant(name, cat, track, **args)
        elif kind == "sample":
            _kind, name, track, values = op
            model.sample(name, track, **values)
            tracer.sample(name, track, **values)
        elif kind == "toggle":
            model.enabled = tracer.enabled = not tracer.enabled
        else:
            sim.now = clock(sim.now + op[1])
        _same_tracers(model, tracer, handles)
