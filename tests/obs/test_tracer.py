"""Tracer unit tests: span lifecycles, explicit parents, disabled no-ops,
and the args every record shares with its equals."""

import itertools
import tracemalloc
from types import SimpleNamespace

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
    assert seen["inner"].parent_id == seen["outer"].id
    # No parent passed: a root, even while another span is open.
    assert seen["outer"].parent_id is None
    assert seen["sibling"].parent_id is None
    assert seen["inner"].closed and seen["outer"].closed
    assert tracer.children_of(seen["outer"]) == [seen["inner"]]


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
    span = handle["span"]
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
    assert seen["child"].parent_id == seen["root"].id
    assert tracer.children_of(seen["root"]) == [seen["child"]]
    # Track inheritance: a child with no track takes its parent's.
    assert seen["child"].track == "smp"


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
        first_end = span.end
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
    assert repr(span.args) == repr(args)
    if kind == "end":
        tracer.end(span, **more)
        args = {**args, **more}
    return args, lambda: span.args


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
    shared = kept.args
    assert ended.args is shared
    tracer.end(ended, dropped=True)
    assert ended.args == {"core": 1, "dropped": True}
    assert kept.args is shared and shared == {"core": 1}
    tracer.end(kept)
    assert kept.args is shared and shared == {"core": 1}


def test_repeated_args_cost_no_dict_per_record():
    """Governor-shaped instant + sample pairs over a few distinct args:
    each record costs its tuple, its list slot and its share of the time,
    at most 150 traced bytes (~280 with a dict per record)."""
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
    assert grown / (2 * pairs) <= 150
