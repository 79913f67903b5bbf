"""The virtual-time series store: series, labels, subscribers."""

from repro.obs.timeline import Series, Timeline, canonical_labels, series_key


class TestCanonicalLabels:
    def test_empty_is_empty_tuple(self):
        assert canonical_labels({}) == ()

    def test_sorted_and_stringified(self):
        assert canonical_labels({"b": 2, "a": "x"}) == (("a", "x"),
                                                        ("b", "2"))

    def test_order_independent_identity(self):
        assert (canonical_labels({"a": 1, "b": 2})
                == canonical_labels({"b": 2, "a": 1}))


class TestSeries:
    def test_append_and_read_back(self):
        series = Series("power.w")
        series.append(10, 1.5)
        series.append(20, 2.5)
        assert series.points() == [(10, 1.5), (20, 2.5)]
        assert series.times() == [10, 20]
        assert series.values() == [1.5, 2.5]
        assert series.last() == (20, 2.5)
        assert len(series) == 2

    def test_samples_coerced_to_int_ns_float_value(self):
        series = Series("s")
        series.append(10.0, 3)
        t, v = series.last()
        assert isinstance(t, int) and isinstance(v, float)

    def test_empty_series(self):
        series = Series("s")
        assert series.last() is None
        assert series.points() == []
        assert series.dropped == 0
        assert series.disordered == 0

    def test_out_of_order_append_counted_not_discarded(self):
        series = Series("s")
        series.append(100, 1.0)
        series.append(50, 2.0)     # out of order
        series.append(50, 2.5)     # equal timestamps are in order
        series.append(40, 3.0)     # out of order again
        assert series.disordered == 2
        assert len(series) == 4    # the samples themselves are kept

    def test_monotone_appends_never_count_as_disordered(self):
        series = Series("s")
        for i in range(5000):
            series.append(i, float(i))
        assert series.disordered == 0
        # every sample is kept, first to last
        assert len(series) == 5000 and series.dropped == 0
        assert series.points()[0] == (0, 0.0)

    def test_key_includes_canonical_labels(self):
        assert Series("s").key == "s"
        series = Series("s", labels={"node": "n1", "app": "web"})
        assert series.key == "s{app=web,node=n1}"
        assert series.key == series_key("s", series.labels)
        assert series_key("s", ()) == "s"


class TestTimeline:
    def test_create_on_first_use(self):
        timeline = Timeline()
        a = timeline.series("power.w", node="n0")
        b = timeline.series("power.w", node="n0")
        c = timeline.series("power.w", node="n1")
        assert a is b
        assert a is not c
        assert len(timeline) == 2

    def test_record_appends_and_returns_series(self):
        timeline = Timeline()
        series = timeline.record("power.w", 100, 2.0, node="n0")
        assert series.last() == (100, 2.0)
        assert "power.w" in timeline
        assert "other" not in timeline

    def test_all_sorted_by_name_then_labels(self):
        timeline = Timeline()
        timeline.record("b", 0, 1.0)
        timeline.record("a", 0, 1.0, x="2")
        timeline.record("a", 0, 1.0, x="1")
        assert [s.key for s in timeline.all()] == ["a{x=1}", "a{x=2}", "b"]
        assert timeline.names() == ["a", "b"]

    def test_total_disordered_sums_series(self):
        timeline = Timeline()
        timeline.record("a", 10, 1.0)
        timeline.record("a", 5, 1.0)
        timeline.record("b", 10, 1.0, node="n0")
        timeline.record("b", 4, 1.0, node="n0")
        timeline.record("b", 3, 1.0, node="n0")
        assert timeline.total_disordered() == 3

    def test_subscribers_see_every_sample(self):
        timeline = Timeline()
        seen = []
        timeline.subscribe(lambda series, t, v: seen.append(
            (series.key, t, v)))
        timeline.record("s", 10, 1.0, node="n0")
        timeline.record("s", 20, 2.0, node="n0")
        assert seen == [("s{node=n0}", 10, 1.0), ("s{node=n0}", 20, 2.0)]
