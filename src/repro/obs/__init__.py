"""repro.obs — unified tracing, metrics, and telemetry for the psbox stack.

See docs/OBSERVABILITY.md for the full guide.  The short version:

>>> from repro.obs import Obs
>>> obs = Obs(platform.sim, label="demo").install()   # before running
>>> platform.sim.run(until=SEC)
>>> from repro.obs import export_chrome_trace
>>> export_chrome_trace([obs], "trace.json")          # open in Perfetto

or, from the command line::

    python -m repro.experiments fig6 --trace t.json --metrics m.json
"""

from repro.obs import explain, flight
from repro.obs.alerts import Alert, AlertEngine, AlertRule, default_rules
from repro.obs.explain import format_incidents, render_json
from repro.obs.exporters import (
    chrome_trace_events,
    events_jsonl_lines,
    export_chrome_trace,
    export_events_jsonl,
    export_metrics,
    export_timeline_jsonl,
    format_metrics_table,
    metrics_snapshot,
    timeline_jsonl_lines,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.openmetrics import (
    export_openmetrics,
    openmetrics_lines,
    render_openmetrics,
)
from repro.obs.session import Obs
from repro.obs.timeline import Series, Timeline
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Obs",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Timeline",
    "Series",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "default_rules",
    "FlightRecorder",
    "chrome_trace_events",
    "events_jsonl_lines",
    "explain",
    "flight",
    "export_chrome_trace",
    "export_events_jsonl",
    "export_metrics",
    "export_openmetrics",
    "export_timeline_jsonl",
    "format_incidents",
    "metrics_snapshot",
    "openmetrics_lines",
    "render_json",
    "render_openmetrics",
    "timeline_jsonl_lines",
    "format_metrics_table",
]
