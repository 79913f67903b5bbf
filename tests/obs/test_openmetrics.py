"""The OpenMetrics exposition: grammar, escaping, round-trip parse."""

import re

from repro.obs.openmetrics import (
    escape_label_value,
    openmetrics_lines,
    render_openmetrics,
    sanitize_label_name,
    sanitize_name,
)
from repro.obs.session import Obs
from repro.obs.timeline import Timeline

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$')
_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


class FakeSim:
    def __init__(self):
        self.now = 0
        self.obs = None
        self.faults = None


def make_session(label="run", timeline=False):
    return Obs(FakeSim(), label=label,
               timeline=Timeline() if timeline else None).install()


def parse(text):
    """Parse an exposition document back into families and samples."""
    families = {}
    samples = []
    assert text.endswith("# EOF\n")
    for line in text.splitlines():
        if line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            _h, _t, name, kind = line.split(" ")
            assert name not in families, "duplicate family " + name
            families[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        assert match, "unparseable sample line: " + line
        name, labelset, value = match.groups()
        labels = dict(_PAIR_RE.findall(labelset or ""))
        samples.append((name, labels, float(value)))
    return families, samples


class TestSanitization:
    def test_dots_become_underscores(self):
        assert sanitize_name("powercap.cap_w") == "powercap_cap_w"

    def test_leading_digit_prefixed(self):
        assert _NAME_RE.match(sanitize_name("9lives"))
        assert _NAME_RE.match(sanitize_name(""))

    def test_arbitrary_junk_sanitizes_clean(self):
        for raw in ("a-b c", "per/sec", "µops", "1.2.3", "a{b}"):
            assert _NAME_RE.match(sanitize_name(raw)), raw

    def test_label_names_disallow_colon(self):
        assert _LABEL_RE.match(sanitize_label_name("a:b"))
        assert _LABEL_RE.match(sanitize_label_name("0node"))


class TestEscaping:
    def test_backslash_quote_newline(self):
        assert escape_label_value('a"b') == r'a\"b'
        assert escape_label_value("a\\b") == r"a\\b"
        assert escape_label_value("a\nb") == r"a\nb"

    def test_escaped_values_round_trip(self):
        obs = make_session(label='node "zero"\n\\path')
        obs.metrics.inc("requests")
        _families, samples = parse(render_openmetrics([obs]))
        (name, labels, value) = samples[0]
        assert name == "requests_total" and value == 1.0
        unescaped = (labels["session"].replace(r"\n", "\n")
                     .replace(r"\"", '"').replace("\\\\", "\\"))
        assert unescaped == 'node "zero"\n\\path'


class TestDocument:
    def test_empty_registry_is_just_eof(self):
        assert openmetrics_lines([]) == ["# EOF"]
        obs = make_session()
        assert openmetrics_lines([obs]) == ["# EOF"]

    def test_untouched_gauges_are_omitted(self):
        obs = make_session()
        obs.metrics.gauge("idle")      # created, never set
        assert openmetrics_lines([obs]) == ["# EOF"]

    def test_counter_gets_total_suffix(self):
        obs = make_session()
        obs.metrics.inc("ipi.sent", 3)
        families, samples = parse(render_openmetrics([obs]))
        assert families == {"ipi_sent": "counter"}
        assert samples == [("ipi_sent_total", {"session": "run"}, 3.0)]

    def test_histogram_becomes_summary(self):
        obs = make_session()
        for v in (1.0, 2.0, 3.0, 4.0):
            obs.metrics.observe("latency.s", v)
        families, samples = parse(render_openmetrics([obs]))
        assert families == {"latency_s": "summary"}
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["latency_s_count"][0][1] == 4.0
        assert by_name["latency_s_sum"][0][1] == 10.0
        quantiles = {labels["quantile"]: value
                     for labels, value in by_name["latency_s"]}
        assert set(quantiles) == {"0.5", "0.9", "0.99"}

    def test_round_trip_every_value(self):
        a = make_session(label="a", timeline=True)
        b = make_session(label="b")
        a.metrics.inc("events", 7)
        a.metrics.set("watts", 2.25)
        a.timeline.record("cap.w", 100, 3.5, node="n0")
        a.timeline.record("cap.w", 200, 4.5, node="n1")
        b.metrics.inc("events", 2)
        families, samples = parse(render_openmetrics([a, b]))
        assert families == {"events": "counter", "watts": "gauge",
                            "cap_w": "gauge",
                            "repro_timeline_dropped_samples": "counter",
                            "repro_timeline_disordered_samples": "counter"}
        table = {(name, tuple(sorted(labels.items()))): value
                 for name, labels, value in samples}
        assert table[("events_total", (("session", "a"),))] == 7.0
        assert table[("events_total", (("session", "b"),))] == 2.0
        assert table[("watts", (("session", "a"),))] == 2.25
        # timeline series export the LAST sample with their labels
        assert table[("cap_w", (("node", "n0"), ("session", "a")))] == 3.5
        assert table[("cap_w", (("node", "n1"), ("session", "a")))] == 4.5

    def test_duplicate_session_labels_deduped(self):
        a = make_session(label="node00")
        b = make_session(label="node00")
        a.metrics.inc("x")
        b.metrics.inc("x")
        _families, samples = parse(render_openmetrics([a, b]))
        sessions = {labels["session"] for _n, labels, _v in samples}
        assert sessions == {"node00", "node00#2"}

    def test_registry_gauge_wins_over_timeline_twin(self):
        # the cap loop publishes cluster.aggregate_w both as a registry
        # gauge and a timeline series; the family must carry ONE sample
        obs = make_session(timeline=True)
        obs.metrics.set("cluster.aggregate_w", 5.0)
        obs.timeline.record("cluster.aggregate_w", 100, 5.000001)
        _families, samples = parse(render_openmetrics([obs]))
        values = [v for name, _l, v in samples
                  if name == "cluster_aggregate_w"]
        assert values == [5.0]

    def test_families_sorted_and_terminated(self):
        obs = make_session()
        obs.metrics.inc("zebra")
        obs.metrics.inc("aardvark")
        lines = openmetrics_lines([obs])
        type_lines = [line for line in lines if line.startswith("# TYPE")]
        assert type_lines == sorted(type_lines)
        assert lines[-1] == "# EOF"

    def test_dropped_samples_counter_reflects_ring(self):
        """A series keeps every sample, so the dropped counter reads 0
        however many were recorded."""
        obs = make_session(timeline=True)
        for i in range(5000):
            obs.timeline.record("s", i, float(i))
        _families, samples = parse(render_openmetrics([obs]))
        table = {name: value for name, _l, value in samples}
        assert table["repro_timeline_dropped_samples_total"] == 0.0
        assert table["repro_timeline_disordered_samples_total"] == 0.0

    def test_disordered_samples_counter_reflects_ring(self):
        obs = make_session(timeline=True)
        obs.timeline.record("s", 100, 1.0)
        obs.timeline.record("s", 50, 2.0)      # out of order
        obs.timeline.record("t", 10, 1.0)
        obs.timeline.record("t", 5, 1.0)       # out of order
        obs.timeline.record("t", 1, 1.0)       # and again
        _families, samples = parse(render_openmetrics([obs]))
        table = {name: value for name, _l, value in samples}
        assert table["repro_timeline_disordered_samples_total"] == 3.0
