"""Unit + property tests for StepTrace and EventTrace.

StepTrace carries the power rails, so its integration/resampling must be
exact; hypothesis drives random change-point sequences through it.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import EventTrace, StepTrace


def test_initial_value_holds_until_first_change():
    tr = StepTrace(2.5)
    assert tr.value_at(0) == 2.5
    assert tr.value_at(10**9) == 2.5


def test_value_at_is_right_continuous():
    tr = StepTrace(0.0)
    tr.set(100, 5.0)
    assert tr.value_at(99) == 0.0
    assert tr.value_at(100) == 5.0
    assert tr.value_at(101) == 5.0


def test_set_same_time_overwrites():
    tr = StepTrace(0.0)
    tr.set(100, 1.0)
    tr.set(100, 2.0)
    assert tr.value_at(100) == 2.0
    assert len(tr) == 2


def test_set_in_past_raises():
    tr = StepTrace(0.0)
    tr.set(100, 1.0)
    with pytest.raises(ValueError):
        tr.set(50, 2.0)


def test_add_adjusts_relative_to_current():
    tr = StepTrace(1.0)
    tr.add(10, 2.0)
    tr.add(20, -0.5)
    assert tr.value_at(15) == 3.0
    assert tr.value_at(25) == 2.5


def test_integrate_simple_rectangle():
    tr = StepTrace(0.0)
    tr.set(100, 2.0)
    tr.set(200, 0.0)
    assert tr.integrate(0, 300) == pytest.approx(2.0 * 100)


def test_integrate_subinterval():
    tr = StepTrace(1.0)
    tr.set(100, 3.0)
    assert tr.integrate(50, 150) == pytest.approx(1.0 * 50 + 3.0 * 50)


def test_segments_cover_interval_exactly():
    tr = StepTrace(1.0)
    tr.set(10, 2.0)
    tr.set(30, 3.0)
    segs = list(tr.segments(5, 40))
    assert segs[0][0] == 5
    assert segs[-1][1] == 40
    for (a, b, _v), (c, _d, _w) in zip(segs, segs[1:]):
        assert b == c


def test_resample_matches_value_at():
    tr = StepTrace(0.5)
    tr.set(1000, 1.5)
    tr.set(2500, 0.25)
    times, values = tr.resample(0, 4000, 500)
    for t, v in zip(times, values):
        assert v == tr.value_at(int(t))


def test_resample_rejects_bad_dt():
    tr = StepTrace(0.0)
    with pytest.raises(ValueError):
        tr.resample(0, 100, 0)


def test_mean_weighted_by_time():
    tr = StepTrace(0.0)
    tr.set(100, 4.0)
    assert tr.mean(0, 200) == pytest.approx(2.0)


def test_mean_empty_interval_raises():
    tr = StepTrace(0.0)
    with pytest.raises(ValueError):
        tr.mean(5, 5)


@st.composite
def step_traces(draw):
    """A StepTrace with random change points, plus its raw (t, v) list."""
    initial = draw(st.floats(0, 10, allow_nan=False))
    n = draw(st.integers(0, 20))
    deltas = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0, 10, allow_nan=False, allow_infinity=False),
                           min_size=n, max_size=n))
    tr = StepTrace(initial)
    t = 0
    for dt, v in zip(deltas, values):
        t += dt
        tr.set(t, v)
    return tr, t


@given(step_traces(), st.integers(0, 500), st.integers(1, 5000))
@settings(max_examples=80, deadline=None)
def test_integral_additivity(trace_and_end, t0, span):
    """integrate(a,c) == integrate(a,b) + integrate(b,c) for any split."""
    tr, _end = trace_and_end
    a, c = t0, t0 + span
    b = a + span // 2
    whole = tr.integrate(a, c)
    parts = tr.integrate(a, b) + tr.integrate(b, c)
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-9)


@given(step_traces(), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_resample_consistency_with_integral_bounds(trace_and_end, dt):
    """The sampled mean is bounded by the signal's min/max over the window."""
    tr, end = trace_and_end
    end = max(end, dt)
    _times, values = tr.resample(0, end + dt, dt)
    lo = min(tr._values)
    hi = max(tr._values)
    assert values.min() >= lo - 1e-12
    assert values.max() <= hi + 1e-12


@given(step_traces())
@settings(max_examples=60, deadline=None)
def test_integral_of_nonnegative_signal_is_monotone(trace_and_end):
    tr, end = trace_and_end
    end = end + 100
    assert tr.integrate(0, end // 2) <= tr.integrate(0, end) + 1e-9


def _segment_sum(tr, t0, t1):
    """The reference for ``integrate``'s short path: a sum over segments."""
    total = 0.0
    for start, end, value in tr.segments(t0, t1):
        total += value * (end - start)
    return total


def _assert_within_sum_error(tr, t0, t1):
    """numpy's dot may multiply and add in another order: allow the
    worst-case float64 error of summing the segment products."""
    terms = [value * (end - start)
             for start, end, value in tr.segments(t0, t1)]
    bound = (len(terms) + 2) * sys.float_info.epsilon * sum(map(abs, terms))
    assert abs(tr.integrate(t0, t1) - _segment_sum(tr, t0, t1)) <= bound


_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def integration_queries(draw):
    """A trace whose sets may repeat an instant (zero width, overwrite),
    and a query ``[t0, t1)`` that may start before the first change point
    or exactly on one, end past the last, or be empty (t1 <= t0)."""
    tr = StepTrace(draw(_FINITE))
    t = draw(st.integers(0, 40))
    for dt, value in draw(st.lists(st.tuples(st.integers(0, 40), _FINITE),
                                   max_size=45)):
        t += dt
        tr.set(t, value)
    t0 = draw(st.one_of(st.integers(-60, t + 60), st.sampled_from(tr._times)))
    t1 = draw(st.one_of(st.integers(t0 - 20, t + 200),
                        st.sampled_from(tr._times)))
    return tr, t0, t1


@given(integration_queries())
@settings(max_examples=300, deadline=None)
def test_integrate_short_path_is_the_segment_sum_bit_for_bit(query):
    tr, t0, t1 = query
    lo, hi = tr._window(t0, t1)
    if hi - lo <= 32:
        assert tr.integrate(t0, t1).hex() == _segment_sum(tr, t0, t1).hex()
    else:
        _assert_within_sum_error(tr, t0, t1)


@pytest.mark.parametrize("t0, t1", [
    (-50, -10),        # wholly before the initial change point at 0
    (-50, 0),
    (-50, 25),
    (10, 20),          # from exactly on a change point
    (10, 10),          # empty
    (15, 10**6),       # past the last change point
])
def test_integrate_edge_queries_are_the_segment_sum(t0, t1):
    tr = StepTrace(0.7)
    tr.set(10, 2.5)
    tr.set(10, 1.25)   # same instant: overwrites, no zero-width segment
    tr.set(20, 3.0)
    assert tr.integrate(t0, t1).hex() == _segment_sum(tr, t0, t1).hex()


@pytest.mark.parametrize("change_points", [32, 33])
def test_integrate_at_the_numpy_switch(change_points):
    """32 change points in the window take the Python loop, 33 numpy."""
    tr = StepTrace(0.3)
    for k in range(1, 41):
        tr.set(10 * k, 1.0 / k)
    t0, t1 = 55, 55 + 10 * (change_points - 1)
    lo, hi = tr._window(t0, t1)
    assert hi - lo == change_points
    if change_points <= 32:
        assert tr.integrate(t0, t1).hex() == _segment_sum(tr, t0, t1).hex()
    else:
        _assert_within_sum_error(tr, t0, t1)


def test_event_trace_filters_by_kind_window_and_payload():
    log = EventTrace("t")
    log.add((10, ("dispatch", "app"), 1))
    log.add((20, ("dispatch", "app"), 2))
    log.add((30, ("complete", "app"), 1))
    assert len(log.filter(kind="dispatch")) == 2
    assert len(log.filter(kind="dispatch", app=1)) == 1
    assert len(log.filter(t0=15)) == 2
    assert len(log.filter(t0=15, t1=25)) == 1
    assert log.times(kind="complete") == [30]


def test_event_trace_iteration_and_len():
    log = EventTrace()
    log.add((1, ("a",)))
    log.add((2, ("b",)))
    assert len(log) == 2
    assert [k for _t, k, _p in log] == ["a", "b"]


def test_add_fast_path_matches_value_at_semantics():
    """add() at/after the last change point must equal the general path."""
    fast = StepTrace(1.0)
    t = 0
    for dt, delta in [(10, 2.0), (0, 0.5), (5, -1.0), (0, 3.0)]:
        t += dt
        fast.add(t, delta)
    # Same-time adds stack (2.0 then +0.5 at t=10), later adds see them.
    assert fast.value_at(10) == pytest.approx(3.5)
    assert fast.value_at(15) == pytest.approx(5.5)
    assert fast.last_value == pytest.approx(5.5)
    assert len(fast) == 3     # t=0, t=10, t=15


def test_add_in_past_still_raises():
    tr = StepTrace(0.0)
    tr.add(100, 1.0)
    with pytest.raises(ValueError):
        tr.add(50, 1.0)


@given(st.lists(st.tuples(st.integers(0, 50), st.floats(-5, 5)), max_size=30))
@settings(max_examples=60, deadline=None)
def test_add_accumulates_deltas_exactly(steps):
    """Final value == initial + sum of deltas, however times collide."""
    tr = StepTrace(2.0)
    t = 0
    total = 2.0
    for dt, delta in steps:
        t += dt
        tr.add(t, delta)
        total += delta
    assert tr.last_value == pytest.approx(total)
    assert tr.value_at(t + 1) == pytest.approx(total)


def test_event_trace_ring_keeps_newest_and_counts_drops():
    log = EventTrace("ring", capacity=3)
    for i in range(5):
        log.add((i, ("k", "n"), i))
    assert len(log) == 3
    assert log.dropped == 2
    assert [p["n"] for _t, _k, p in log] == [2, 3, 4]
    assert log.times() == [2, 3, 4]
    # filter() works on the ring contents only.
    assert log.filter(t0=0, t1=3) == [(2, "k", {"n": 2})]


def test_event_trace_ring_subscribers_see_every_record():
    log = EventTrace("ring", capacity=2)
    seen = []
    log.subscribe(lambda t, k, p: seen.append(t))
    for i in range(6):
        log.add((i, ("k",)))
    assert seen == list(range(6))
    assert len(log) == 2 and log.dropped == 4


def test_event_trace_unbounded_never_drops():
    log = EventTrace()
    for i in range(100):
        log.add((i, ("k",)))
    assert len(log) == 100
    assert log.dropped == 0
    assert log.capacity is None


#: what the reference test draws a record's kind, fields and values from
_KINDS = ("dispatch", "complete", "count")
_FIELDS = ("app", "seq", "wait", "size")
_VALUES = st.one_of(
    st.integers(-2, 2),
    st.floats(-2, 2, allow_nan=False),
    st.sampled_from(["a", "b"]),
    st.none(),
    st.lists(st.integers(0, 1), max_size=2),
)


@st.composite
def _event_records(draw):
    """(t, shape, values) with non-decreasing t and 0-4 distinct fields."""
    records = []
    t = 0
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.integers(0, 3))
        fields = tuple(draw(st.lists(st.sampled_from(_FIELDS), max_size=4,
                                     unique=True)))
        values = tuple(draw(_VALUES) for _ in fields)
        records.append((t, (draw(st.sampled_from(_KINDS)),) + fields,
                        values))
    return records


@given(
    records=_event_records(),
    capacity=st.one_of(st.none(), st.integers(1, 6)),
    kind=st.one_of(st.none(), st.sampled_from(_KINDS)),
    t0=st.one_of(st.none(), st.integers(0, 20)),
    t1=st.one_of(st.none(), st.integers(0, 20)),
    match=st.dictionaries(st.sampled_from(_FIELDS + ("absent",)), _VALUES,
                          max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_event_trace_matches_a_list_of_dict_records(records, capacity, kind,
                                                    t0, t1, match):
    """``EventTrace`` answers as a plain list of ``(t, kind, dict)`` does."""
    log = EventTrace("ref", capacity)
    seen = []
    log.subscribe(lambda t, k, payload: seen.append((t, k, payload)))
    model = []
    for t, shape, values in records:
        log.add((t, shape) + values)
        model.append((t, shape[0], dict(zip(shape[1:], values))))
    assert seen == model
    kept = model if capacity is None else model[max(len(model) - capacity,
                                                    0):]
    assert len(log) == len(kept)
    assert log.dropped == len(model) - len(kept)
    assert list(log) == kept
    for _t, _k, payload in log:
        payload["mutated"] = True       # each read gets a fresh dict
    assert list(log) == kept
    for n in (0, 1, len(kept), len(kept) + 3):
        assert log.tail(n) == (kept[max(len(kept) - n, 0):] if n else [])

    def wanted(t, k, payload, lo=None, hi=None):
        return ((kind is None or k == kind)
                and (lo is None or t >= lo) and (hi is None or t < hi)
                and not any(payload.get(key) != value
                            for key, value in match.items()))

    assert log.filter(kind, t0, t1, **match) == [
        r for r in kept if wanted(*r, t0, t1)]
    assert log.times(kind, **match) == [r[0] for r in kept if wanted(*r)]


def test_event_trace_rejects_bad_capacity():
    with pytest.raises(ValueError):
        EventTrace(capacity=0)
    assert EventTrace(capacity=1).capacity == 1
