"""Metrics unit tests: counters, gauges, weighted histograms, merging."""

import gc
import json
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, metrics
from repro.obs.openmetrics import render_openmetrics


def test_counter_accumulates():
    c = Counter("c")
    c.inc()
    c.inc(41)
    assert c.value == 42


def test_gauge_tracks_envelope():
    g = Gauge("g")
    assert g.value is None
    g.set(5.0)
    g.set(1.0)
    g.set(3.0)
    assert g.value == 3.0
    assert g.min == 1.0
    assert g.max == 5.0
    assert g.updates == 3


def test_histogram_unweighted_quantiles():
    h = Histogram("h")
    for v in range(1, 101):
        h.observe(v)
    assert h.count == 100
    assert h.min == 1 and h.max == 100
    assert h.mean == pytest.approx(50.5)
    assert h.quantile(0.5) == 50
    assert h.quantile(0.0) == 1
    assert h.quantile(1.0) == 100


def test_histogram_weighted_quantiles_are_time_weighted():
    # An OPP residency: value 1.0 held for 9 units, value 10.0 for 1 unit.
    h = Histogram("h")
    h.observe(1.0, weight=9.0)
    h.observe(10.0, weight=1.0)
    assert h.quantile(0.5) == 1.0
    assert h.quantile(0.89) == 1.0
    assert h.quantile(0.95) == 10.0
    assert h.mean == pytest.approx((1.0 * 9 + 10.0 * 1) / 10)


def test_histogram_rejects_bad_quantile_and_ignores_zero_weight():
    h = Histogram("h")
    assert h.quantile(0.5) is None
    h.observe(1.0, weight=0.0)
    assert h.count == 0
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_merge_is_exact():
    a, b, both = Histogram("a"), Histogram("b"), Histogram("both")
    for v in (1, 2, 3):
        a.observe(v)
        both.observe(v)
    for v in (10, 20):
        b.observe(v, weight=2.0)
        both.observe(v, weight=2.0)
    a.merge_from(b)
    for q in (0.1, 0.5, 0.9):
        assert a.quantile(q) == both.quantile(q)
    assert a.mean == pytest.approx(both.mean)


def test_registry_create_on_demand_and_conveniences():
    reg = MetricsRegistry()
    reg.inc("events")
    reg.inc("events", 2)
    reg.set("level", 0.5)
    reg.observe("latency", 10.0)
    assert reg.counter("events").value == 3
    assert reg.gauge("level").value == 0.5
    assert reg.histogram("latency").count == 1
    assert len(reg) == 3
    # Same name returns the same handle.
    assert reg.counter("events") is reg.counter("events")


def test_registry_merge_semantics():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.inc("n", 1)
    b.inc("n", 2)
    b.inc("only_b", 5)
    a.set("g", 1.0)
    b.set("g", 0.5)
    b.set("g", 4.0)
    a.observe("h", 1.0)
    b.observe("h", 3.0)
    a.merge_from(b)
    assert a.counter("n").value == 3
    assert a.counter("only_b").value == 5
    assert a.gauge("g").value == 4.0      # the merged-in latest wins
    assert a.gauge("g").min == 0.5
    assert a.gauge("g").max == 4.0
    assert a.histogram("h").count == 2


#: one recorded sample: an integer count (what every counter site adds), a
#: gauge write or a weighted histogram observation
_SAMPLES = st.one_of(
    st.tuples(st.just("inc"), st.sampled_from("ab"), st.integers(0, 2**40)),
    st.tuples(st.just("set"), st.sampled_from("ab"),
              st.floats(allow_nan=False)),
    st.tuples(st.just("observe"), st.sampled_from("ab"),
              st.floats(allow_nan=False, allow_infinity=False),
              st.floats(min_value=0.0, max_value=1e6)),
)


def _feed(registry, samples):
    for kind, name, *args in samples:
        getattr(registry, kind)(name, *args)


def _split(items, cuts):
    """``items`` cut into contiguous runs at each index in ``cuts``."""
    bounds = [0] + sorted(min(cut, len(items)) for cut in cuts) + [len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(_SAMPLES, max_size=60),
       session_cuts=st.lists(st.integers(0, 60), max_size=6),
       cell_cuts=st.lists(st.integers(0, 7), max_size=3))
def test_registries_split_into_cells_merge_like_one(samples, session_cuts,
                                                    cell_cuts):
    """What a pool run folds equals one registry fed every sample.

    The samples are split into sessions and the sessions into cells.
    Each cell's registries are pickled, as a pool worker returns them,
    and every registry is merged in order with ``merge_from``.  The
    snapshot JSON must equal that of one registry fed every sample in
    order.  Gauge values leave out NaN: a session whose first write is
    NaN keeps NaN bounds, so a split moves a NaN gauge's envelope.  No
    site writes one.
    """
    flat = MetricsRegistry()
    _feed(flat, samples)
    sessions = []
    for chunk in _split(samples, session_cuts):
        registry = MetricsRegistry()
        _feed(registry, chunk)
        sessions.append(registry)
    merged = MetricsRegistry()
    for cell in _split(sessions, cell_cuts):
        for registry in pickle.loads(pickle.dumps(cell)):
            merged.merge_from(registry)
    assert (json.dumps(merged.snapshot(), sort_keys=True)
            == json.dumps(flat.snapshot(), sort_keys=True))


def test_snapshot_shape():
    reg = MetricsRegistry()
    reg.inc("c")
    reg.set("g", 2.0)
    reg.observe("h", 5.0)
    snap = reg.snapshot()
    assert snap["counters"] == {"c": 1}
    assert snap["gauges"]["g"] == {"value": 2.0, "min": 2.0, "max": 2.0}
    hist = snap["histograms"]["h"]
    assert hist["count"] == 1
    assert hist["p50"] == 5.0
    assert hist["p99"] == 5.0
    # The snapshot must be JSON-serializable as-is.
    import json
    json.dumps(snap)


def test_quantile_validates_q_even_when_empty():
    h = Histogram("h")
    with pytest.raises(ValueError):
        h.quantile(-0.1)
    with pytest.raises(ValueError):
        h.quantile(1.5)
    assert h.quantile(0.5) is None      # empty is None, AFTER validation


def test_quantile_cache_invalidated_by_observe():
    h = Histogram("h")
    h.observe(10.0)
    assert h.quantile(0.5) == 10.0
    h.observe(1.0)
    h.observe(2.0)
    assert h.quantile(0.0) == 1.0       # stale cache would still say 10
    assert h.quantile(1.0) == 10.0


def test_quantile_cache_invalidated_by_merge():
    a, b = Histogram("a"), Histogram("b")
    a.observe(5.0)
    assert a.quantile(0.5) == 5.0       # populate the cache
    b.observe(50.0)
    a.merge_from(b)
    assert a.quantile(1.0) == 50.0


def test_a_snapshot_sorts_each_histogram_once(monkeypatch):
    """Both exports read every quantile from one sort per histogram, and
    no histogram keeps a sorted copy after: only its raw values and
    weights stay."""
    reg = MetricsRegistry()
    for v in (3.0, 1.0, 2.0):
        reg.observe("a", v)
    reg.observe("b", 5.0, weight=2.0)
    reg.histogram("empty")
    sorts = []

    def counting_sorted(iterable, **kwargs):
        items = sorted(iterable, **kwargs)
        if isinstance(iterable, zip):    # the registry sorts names too
            sorts.append(len(items))
        return items

    monkeypatch.setattr(metrics, "sorted", counting_sorted, raising=False)
    snap = reg.snapshot()
    assert sorts == [3, 1]
    assert snap["histograms"]["a"]["p50"] == 2.0
    sorts.clear()
    render_openmetrics([SimpleNamespace(label="s", metrics=reg)])
    assert sorts == [3, 1]
    for hist in reg.histograms.values():
        assert [ref for ref in gc.get_referents(hist)
                if isinstance(ref, (list, tuple))] == [hist._values,
                                                       hist._weights]


def _reference_quantile(pairs, q):
    """The smallest value (in sorted order) whose running weight covers
    ``q`` of the total, else the largest; None when empty."""
    if not pairs:
        return None
    target = q * sum(weight for _value, weight in pairs)
    running = 0.0
    for value, weight in sorted(pairs):
        running += weight
        if running >= target:
            return value
    return max(pairs)[0]


_QS = st.lists(st.floats(0.0, 1.0), max_size=6)


@given(st.lists(st.tuples(st.floats(-1e6, 1e6),
                          st.floats(1e-3, 1e3)), max_size=40), _QS)
@settings(max_examples=200, deadline=None)
def test_quantiles_match_one_quantile_at_a_time(pairs, qs):
    """One sort for many quantiles reads what one call per quantile
    reads, and what a running-weight scan picks, the empty histogram
    included."""
    h = Histogram("h")
    for value, weight in pairs:
        h.observe(value, weight)
    assert h.quantiles(qs) == [h.quantile(q) for q in qs]
    assert h.quantiles(qs) == [_reference_quantile(pairs, q) for q in qs]


@given(_QS, st.sampled_from([-0.1, 1.5, float("nan"), -1e-12]),
       st.booleans())
def test_quantiles_reject_any_q_out_of_range(qs, bad, empty):
    h = Histogram("h")
    if not empty:
        h.observe(1.0)
    with pytest.raises(ValueError):
        h.quantiles(qs + [bad])
    with pytest.raises(ValueError):
        h.quantile(bad)
