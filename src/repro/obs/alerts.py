"""Declarative SLO/alert rules evaluated on each timeline sample.

A rule is pure data — *which* series, *what* condition, *how long* it must
persist — and the :class:`AlertEngine` interprets it as samples stream off
the :class:`~repro.obs.timeline.Timeline`.  Streaming evaluation matters
twice: ring buffers evict old samples (a post-hoc scan could miss a breach
the window already lost), and firing *during* the run lets the engine drop
a tracer instant at the exact virtual time the SLO broke — so the alert
lines up with its cause on the Perfetto timeline.

Semantics:

* a rule *fires* once its condition has held for ``for_samples``
  consecutive samples of one series, and re-arms only after a sample
  where the condition is false (one alert per breach episode, not one
  per sample);
* ``at_end=True`` rules are instead evaluated once, in
  :meth:`AlertEngine.finalize`, against each matching series' last
  sample — the shape of "unfinished spans at trace end" or a placement
  drop-rate known only when placement is done;
* the engine is read-only (no RNG, no events): watching a run never
  perturbs it, so telemetry-on fingerprints stay bit-identical.
"""

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.obs.timeline import canonical_labels

#: supported rule conditions: value `op` threshold
_OPS = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
    "abs>": lambda value, threshold: abs(value) > threshold,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO rule over a timeline series."""

    name: str
    series: str              # series name the rule watches
    op: str = ">"            # one of _OPS
    threshold: float = 0.0
    for_samples: int = 1     # consecutive breaching samples before firing
    labels: tuple = ()       # ((key, value), ...) subset the series must carry
    severity: str = "warning"    # "warning" | "critical"
    at_end: bool = False     # evaluate once at finalize, on the last sample
    description: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError("unknown rule op {!r} (one of {})".format(
                self.op, sorted(_OPS)))
        if self.for_samples < 1:
            raise ValueError("for_samples must be >= 1")
        object.__setattr__(self, "labels",
                           canonical_labels(dict(self.labels)))

    def matches(self, series):
        """Does this rule watch ``series``? (name + label subset)"""
        if series.name != self.series:
            return False
        if self.labels:
            have = dict(series.labels)
            return all(have.get(k) == v for k, v in self.labels)
        return True

    def breached(self, value):
        return _OPS[self.op](value, self.threshold)

    def to_dict(self):
        return {
            "name": self.name, "series": self.series, "op": self.op,
            "threshold": self.threshold, "for_samples": self.for_samples,
            "labels": dict(self.labels), "severity": self.severity,
            "at_end": self.at_end, "description": self.description,
        }


@dataclass
class Alert:
    """One fired rule: where, when (virtual ns), and on what evidence."""

    rule: str
    severity: str
    session: str
    series: str
    labels: dict
    t_ns: int
    value: float
    streak: int
    message: str = ""

    def to_dict(self):
        return {
            "rule": self.rule, "severity": self.severity,
            "session": self.session, "series": self.series,
            "labels": dict(self.labels), "t_ns": self.t_ns,
            "value": self.value, "streak": self.streak,
            "message": self.message,
        }


def default_rules(compliance_band=0.01, compliance_epochs=4,
                  drop_rate=0.05, starvation_w=0.02, starvation_epochs=4):
    """The stock SLO set the ``--telemetry``/``--report`` CLI arms.

    * ``cap.compliance`` — the global cap loop's aggregate outside the
      ±``compliance_band`` band for more than ``compliance_epochs``
      consecutive epochs (nvPAX's compliance-over-time framing);
    * ``node.cap.compliance`` — same property one level down, on a node
      daemon's own root cap (longer fuse: node caps are rewritten every
      epoch, so transients are expected);
    * ``placement.drop_rate`` — the placement engine dropped more than
      ``drop_rate`` of all instances (provisioning failure);
    * ``tenant.starvation`` — a tenant with live users whose total grant
      stayed under ``starvation_w`` watts for ``starvation_epochs``
      consecutive epochs;
    * ``trace.unfinished_spans`` — spans still open at trace end (a
      liveness bug: dropped IPI, stuck drain), evaluated at finalize.
    """
    return [
        AlertRule("cap.compliance", series="cluster.compliance_err",
                  op="abs>", threshold=compliance_band,
                  for_samples=compliance_epochs, severity="critical",
                  description="cluster aggregate outside the cap band"),
        AlertRule("node.cap.compliance", series="powercap.compliance_err",
                  op="abs>", threshold=compliance_band,
                  for_samples=4 * compliance_epochs, severity="warning",
                  description="node aggregate outside its root-cap band"),
        AlertRule("placement.drop_rate", series="placement.drop_rate",
                  op=">", threshold=drop_rate, severity="critical",
                  description="placement dropped too many instances"),
        AlertRule("tenant.starvation", series="cluster.tenant_grant_w",
                  op="<", threshold=starvation_w,
                  for_samples=starvation_epochs, severity="critical",
                  description="active tenant granted almost no power"),
        AlertRule("trace.unfinished_spans", series="obs.unfinished_spans",
                  op=">", threshold=0.0, at_end=True,
                  description="spans still open at trace end"),
    ]


class AlertEngine:
    """Evaluates a rule set against every watched session's timeline."""

    def __init__(self, rules=None):
        self.rules = list(rules if rules is not None else default_rules())
        self.alerts = []
        self._watched = []       # (obs, timeline)
        self._streaks = {}       # (rule name, session, series key) -> count
        self._fired = set()      # keys currently latched (fired, not re-armed)
        # series name -> the streaming rules that watch it, in rule order
        self._watching = {}
        #: True once :meth:`finalize` ran
        self.finalized = False

    # -- wiring --------------------------------------------------------------------

    def add_rule(self, rule):
        self.rules.append(rule)
        self._watching.clear()
        return rule

    def watch(self, obs):
        """Stream ``obs.timeline`` samples through the rules; returns self.

        Sessions without a timeline are ignored (nothing to evaluate).
        Idempotent per session: re-watching an already-watched session
        must not stack a second subscriber (each extra subscriber would
        double-count streaks and fire every rule twice).
        """
        timeline = getattr(obs, "timeline", None)
        if timeline is None:
            return self
        if any(watched is obs for watched, _tl in self._watched):
            return self

        def on_sample(series, t_ns, value, _obs=obs):
            self._on_sample(_obs, series, t_ns, value)

        timeline.subscribe(on_sample)
        self._watched.append((obs, timeline))
        return self

    # -- evaluation ------------------------------------------------------------------

    def _on_sample(self, obs, series, t_ns, value):
        # only the rules that watch this series name, in rule order: the
        # same rules fire in the same order as a scan of every rule
        rules = self._watching.get(series.name)
        if rules is None:
            rules = self._watching[series.name] = [
                rule for rule in self.rules
                if not rule.at_end and rule.series == series.name]
        for rule in rules:
            if not rule.matches(series):
                continue
            key = (rule.name, obs.label, series.key)
            if rule.breached(value):
                streak = self._streaks.get(key, 0) + 1
                self._streaks[key] = streak
                if streak >= rule.for_samples and key not in self._fired:
                    self._fired.add(key)
                    self._fire(rule, obs, series, t_ns, value, streak)
            else:
                self._streaks[key] = 0
                self._fired.discard(key)

    def _fire(self, rule, obs, series, t_ns, value, streak):
        message = "{} {} {:g} for {} sample(s) (value {:g})".format(
            series.key, rule.op, rule.threshold, streak, value)
        self.alerts.append(Alert(
            rule=rule.name, severity=rule.severity, session=obs.label,
            series=series.name, labels=dict(series.labels), t_ns=t_ns,
            value=value, streak=streak, message=message,
        ))
        tracer = getattr(obs, "tracer", None)
        if tracer is not None:
            tracer.instant("alert." + rule.name, cat="alert", track="alerts",
                           severity=rule.severity, series=series.key,
                           value=round(value, 6))
        if obs.flight is not None:
            obs.flight.on_alert(self.alerts[-1])

    def finalize(self):
        """Run the ``at_end`` rules against each series' last sample.

        Callers record end-of-run facts (the unfinished-span count) into
        the timelines first; finalize is idempotent.
        """
        if self.finalized:
            return self
        self.finalized = True
        for obs, timeline in self._watched:
            for series in timeline.all():
                last = series.last()
                if last is None:
                    continue
                t_ns, value = last
                for rule in self.rules:
                    if not rule.at_end or not rule.matches(series):
                        continue
                    if rule.breached(value):
                        key = (rule.name, obs.label, series.key)
                        if key not in self._fired:
                            self._fired.add(key)
                            self._fire(rule, obs, series, t_ns, value, 1)
        return self

    # -- reporting -------------------------------------------------------------------

    @property
    def ok(self):
        """True when nothing critical fired."""
        return not any(a.severity == "critical" for a in self.alerts)

    def summary(self):
        """The structured report: rules, fired alerts, per-rule counts."""
        counts = {}
        for alert in self.alerts:
            counts[alert.rule] = counts.get(alert.rule, 0) + 1
        return {
            "ok": self.ok,
            "rules": [rule.to_dict() for rule in self.rules],
            "alerts": [alert.to_dict() for alert in sorted(
                self.alerts, key=lambda a: (a.t_ns, a.session, a.rule))],
            "counts": dict(sorted(counts.items())),
        }

    def format_report(self):
        """Aligned-text rendering of the summary (the ``--report`` output)."""
        summary = self.summary()
        if not summary["alerts"]:
            return ("SLO report: ok — no alerts fired "
                    "({} rules evaluated)".format(len(self.rules)))
        rows = [
            [a["rule"], a["severity"], a["session"],
             "{:.4f}".format(a["t_ns"] / 1e9), a["series"],
             "{:g}".format(a["value"])]
            for a in summary["alerts"]
        ]
        table = format_table(
            ["rule", "severity", "session", "t (s)", "series", "value"],
            rows, title="SLO report — {} alert(s), {}".format(
                len(rows), "ok" if summary["ok"] else "NOT OK"))
        return table
