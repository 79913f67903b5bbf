"""OpenMetrics text exposition of sessions' metrics and timelines.

One text document covering a set of :class:`~repro.obs.session.Obs`
sessions, in the OpenMetrics text format (the Prometheus exposition
format's standardized successor): counters become ``counter`` families
with the mandatory ``_total`` sample suffix, gauges become ``gauge``
families, histograms become ``summary`` families (count, sum, and the
registry's standard quantiles), and each timeline series contributes its
*last* sample as a gauge carrying the series labels.  Every sample carries
a ``session`` label so one dump can hold a whole cluster — the per-node
daemons and the global cap loop side by side, scrapeable by anything that
speaks Prometheus.

Metric names are sanitized to the OpenMetrics grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``; the repo's dotted names map ``.`` to
``_``), and label values are escaped per the spec (backslash, double
quote, newline).  The document ends with the mandatory ``# EOF``.
"""

import re

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_BAD = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_name(name):
    """A valid OpenMetrics metric name for ``name`` (dots become ``_``)."""
    name = _NAME_BAD.sub("_", str(name))
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def sanitize_label_name(name):
    name = _LABEL_BAD.sub("_", str(name))
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def escape_label_value(value):
    """Escape a label value per the exposition format."""
    return (str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _format_value(value):
    if value is None:
        return "NaN"
    if isinstance(value, float):
        return "{:.10g}".format(value)
    return str(value)


def _labelset(labels):
    """``{a="x",b="y"}`` (or empty string) from (name, value) pairs."""
    if not labels:
        return ""
    return "{{{}}}".format(",".join(
        '{}="{}"'.format(sanitize_label_name(k), escape_label_value(v))
        for k, v in labels))


class _Family:
    """One metric family: a type and its samples, collected across sessions."""

    __slots__ = ("name", "kind", "samples", "_seen")

    def __init__(self, name, kind):
        self.name = name
        self.kind = kind
        self.samples = []    # (sample name, label pairs, value)
        self._seen = set()

    def add(self, sample, labels, value):
        """Append one sample; exact labelset duplicates are dropped.

        A name can reach the same family twice for one session — the
        registry gauge the cap loop publishes and the timeline series'
        last value share e.g. ``cluster.aggregate_w`` — and duplicate
        labelsets are invalid exposition, so the first writer (the
        registry, emitted first) wins.
        """
        key = (sample, labels)
        if key in self._seen:
            return
        self._seen.add(key)
        self.samples.append((sample, labels, value))

    def lines(self):
        out = ["# TYPE {} {}".format(self.name, self.kind)]
        for sample, labels, value in self.samples:
            out.append("{}{} {}".format(sample, _labelset(labels),
                                        _format_value(value)))
        return out


def _session_labels(sessions):
    """Unique ``session`` label per session (duplicates get ``#n``)."""
    seen = {}
    labels = []
    for obs in sessions:
        label = obs.label or "run"
        n = seen.get(label, 0) + 1
        seen[label] = n
        labels.append(label if n == 1 else "{}#{}".format(label, n))
    return labels


def openmetrics_lines(sessions):
    """The full exposition document as a list of lines (incl. ``# EOF``)."""
    families = {}

    def family(raw_name, kind, suffix=""):
        name = sanitize_name(raw_name) + suffix
        fam = families.get(name)
        if fam is None:
            fam = families[name] = _Family(name, kind)
        return fam

    for obs, session in zip(sessions, _session_labels(sessions)):
        base = (("session", session),)
        registry = obs.metrics
        for name in sorted(registry.counters):
            fam = family(name, "counter")
            fam.add(fam.name + "_total", base,
                    registry.counters[name].value)
        for name in sorted(registry.gauges):
            gauge = registry.gauges[name]
            if gauge.updates:
                fam = family(name, "gauge")
                fam.add(fam.name, base, gauge.value)
        for name in sorted(registry.histograms):
            hist = registry.histograms[name]
            fam = family(name, "summary")
            fam.add(fam.name + "_count", base, hist.count)
            fam.add(fam.name + "_sum", base, hist.total)
            for q, value in zip(registry.QUANTILES,
                                hist.quantiles(registry.QUANTILES)):
                fam.add(fam.name,
                        base + (("quantile", "{:g}".format(q)),), value)
        timeline = getattr(obs, "timeline", None)
        if timeline is not None:
            for series in timeline.all():
                last = series.last()
                if last is None:
                    continue
                fam = family(series.name, "gauge")
                fam.add(fam.name, base + series.labels, last[1])
            # always 0: a series keeps every sample
            fam = family("repro.timeline.dropped_samples", "counter")
            fam.add(fam.name + "_total", base, 0)
            fam = family("repro.timeline.disordered_samples", "counter")
            fam.add(fam.name + "_total", base, timeline.total_disordered())

    lines = []
    for name in sorted(families):
        lines.extend(families[name].lines())
    lines.append("# EOF")
    return lines


def render_openmetrics(sessions):
    """The exposition document as one string (trailing newline included)."""
    return "\n".join(openmetrics_lines(sessions)) + "\n"


def export_openmetrics(sessions, path):
    """Write the OpenMetrics dump; returns the number of metric families."""
    text = render_openmetrics(sessions)
    with open(path, "w") as handle:
        handle.write(text)
    return sum(1 for line in text.splitlines() if line.startswith("# TYPE"))
