"""The SLO/alert rule engine: streaming evaluation over timelines."""

import pytest

from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.session import Obs
from repro.obs.timeline import Timeline


class FakeSim:
    """The minimal sim surface an Obs session needs."""

    def __init__(self):
        self.now = 0
        self.obs = None
        self.faults = None


def make_session(label="test", rules=None):
    obs = Obs(FakeSim(), label=label, tracing=True,
              timeline=Timeline()).install()
    engine = AlertEngine(rules)
    engine.watch(obs)
    return obs, engine


class TestAlertRule:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            AlertRule("r", series="s", op="~=")

    def test_for_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            AlertRule("r", series="s", for_samples=0)

    def test_breached_per_op(self):
        assert AlertRule("r", series="s", op=">",
                         threshold=1.0).breached(1.5)
        assert not AlertRule("r", series="s", op=">",
                             threshold=1.0).breached(1.0)
        assert AlertRule("r", series="s", op="<",
                         threshold=1.0).breached(0.5)
        assert AlertRule("r", series="s", op="abs>",
                         threshold=0.1).breached(-0.2)
        assert AlertRule("r", series="s", op=">=",
                         threshold=1.0).breached(1.0)
        assert AlertRule("r", series="s", op="<=",
                         threshold=1.0).breached(1.0)

    def test_matches_name_and_label_subset(self):
        timeline = Timeline()
        series = timeline.series("power.w", node="n0", app="web")
        assert AlertRule("r", series="power.w").matches(series)
        assert AlertRule("r", series="power.w",
                         labels=(("node", "n0"),)).matches(series)
        assert not AlertRule("r", series="power.w",
                             labels=(("node", "n1"),)).matches(series)
        assert not AlertRule("r", series="other").matches(series)


class TestStreamingEvaluation:
    def test_fires_after_consecutive_breaches(self):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0,
                         for_samples=3)
        obs, engine = make_session(rules=[rule])
        for t, v in enumerate([2.0, 2.0]):
            obs.timeline.record("w", t, v)
        assert engine.alerts == []
        obs.timeline.record("w", 2, 2.0)
        assert len(engine.alerts) == 1
        alert = engine.alerts[0]
        assert alert.rule == "hot" and alert.t_ns == 2
        assert alert.streak == 3 and alert.session == "test"

    def test_streak_resets_on_recovery(self):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0,
                         for_samples=2)
        obs, engine = make_session(rules=[rule])
        for t, v in enumerate([2.0, 0.5, 2.0, 0.5, 2.0]):
            obs.timeline.record("w", t, v)
        assert engine.alerts == []

    def test_one_alert_per_breach_episode(self):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0,
                         for_samples=2)
        obs, engine = make_session(rules=[rule])
        # one long breach: exactly one alert, not one per extra sample
        for t in range(6):
            obs.timeline.record("w", t, 2.0)
        assert len(engine.alerts) == 1
        # recovery then a new breach: a second episode, a second alert
        obs.timeline.record("w", 6, 0.0)
        obs.timeline.record("w", 7, 2.0)
        obs.timeline.record("w", 8, 2.0)
        assert len(engine.alerts) == 2

    def test_series_tracked_independently(self):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0,
                         for_samples=2)
        obs, engine = make_session(rules=[rule])
        obs.timeline.record("w", 0, 2.0, node="a")
        obs.timeline.record("w", 0, 2.0, node="b")
        obs.timeline.record("w", 1, 2.0, node="a")
        assert len(engine.alerts) == 1
        assert engine.alerts[0].labels == {"node": "a"}

        # the engine evaluates a sample only against the rules watching
        # its series: the same alerts, in the same order, as a scan of
        # every rule, with several rules per series, label filters, an
        # at_end rule, a series no rule watches and a rule added mid-stream
        rules = [
            AlertRule("w.hi", series="w", op=">", threshold=1.0,
                      for_samples=2),
            AlertRule("v.lo", series="v", op="<", threshold=0.0),
            AlertRule("w.a", series="w", op=">=", threshold=2.0,
                      labels=(("node", "a"),)),
            AlertRule("w.end", series="w", op=">", threshold=0.0,
                      at_end=True),
            AlertRule("w.abs", series="w", op="abs>", threshold=2.5),
            # two rules that fire on the same samples, listed out of name
            # order: rule order decides which alert comes first
            AlertRule("w.z", series="w", op=">", threshold=0.5),
            AlertRule("w.b", series="w", op=">", threshold=0.4),
        ]
        late = AlertRule("v.hi", series="v", op=">", threshold=1.0,
                         for_samples=2)
        samples = [(t, ("w", "v", "u")[t % 3], (t * 7 % 11) / 2 - 1.5,
                    ("a", "b")[t // 3 % 2]) for t in range(60)]

        def stream(engine, obs):
            for t, name, value, node in samples:
                if t == 30:
                    engine.add_rule(late)
                obs.timeline.record(name, t, value, node=node)
            engine.finalize()
            return [(a.rule, a.t_ns, a.labels, a.streak)
                    for a in engine.alerts]

        obs, engine = make_session(rules=rules)
        fired = stream(engine, obs)

        def every_rule(self, obs, series, t_ns, value):
            for rule in self.rules:
                if rule.at_end or not rule.matches(series):
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

        obs, reference = make_session(rules=rules)
        reference._on_sample = every_rule.__get__(reference)
        assert fired == stream(reference, obs)
        assert {name for name, *_rest in fired} == {
            "w.hi", "v.lo", "w.a", "w.end", "w.abs", "w.z", "w.b", "v.hi"}

    def test_alert_emits_tracer_instant(self):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0)
        obs, engine = make_session(rules=[rule])
        obs.timeline.record("w", 5, 2.0)
        names = [name for _t, _track, name, _c, _a in obs.tracer.instants]
        assert "alert.hot" in names


class TestFinalize:
    def test_at_end_rule_sees_last_sample_only(self):
        rule = AlertRule("leftover", series="open", op=">", threshold=0.0,
                         at_end=True)
        obs, engine = make_session(rules=[rule])
        obs.timeline.record("open", 0, 5.0)   # mid-run: must not fire
        assert engine.alerts == []
        obs.timeline.record("open", 9, 2.0)
        engine.finalize()
        assert len(engine.alerts) == 1
        assert engine.alerts[0].value == 2.0

    def test_at_end_rule_quiet_when_condition_holds(self):
        rule = AlertRule("leftover", series="open", op=">", threshold=0.0,
                         at_end=True)
        obs, engine = make_session(rules=[rule])
        obs.timeline.record("open", 9, 0.0)
        engine.finalize()
        assert engine.alerts == []

    def test_finalize_idempotent(self):
        rule = AlertRule("leftover", series="open", op=">", threshold=0.0,
                         at_end=True)
        obs, engine = make_session(rules=[rule])
        obs.timeline.record("open", 9, 1.0)
        engine.finalize()
        engine.finalize()
        assert len(engine.alerts) == 1


class TestReporting:
    def test_ok_tracks_critical_only(self):
        warn = AlertRule("w", series="s", op=">", threshold=0.0,
                         severity="warning")
        crit = AlertRule("c", series="s", op=">", threshold=1.0,
                         severity="critical")
        obs, engine = make_session(rules=[warn, crit])
        obs.timeline.record("s", 0, 0.5)
        assert engine.ok
        obs.timeline.record("s", 1, 0.0)   # re-arm
        obs.timeline.record("s", 2, 2.0)
        assert not engine.ok

    def test_summary_is_json_shaped(self):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0)
        obs, engine = make_session(rules=[rule])
        obs.timeline.record("w", 5, 2.0, node="n0")
        summary = engine.summary()
        assert summary["ok"] is True
        assert summary["counts"] == {"hot": 1}
        (alert,) = summary["alerts"]
        assert alert["series"] == "w" and alert["labels"] == {"node": "n0"}
        assert summary["rules"][0]["name"] == "hot"

    def test_format_report_mentions_alerts(self):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0,
                         severity="critical")
        obs, engine = make_session(rules=[rule])
        assert "no alerts" in engine.format_report()
        obs.timeline.record("w", 5, 2.0)
        report = engine.format_report()
        assert "hot" in report and "NOT OK" in report

    def test_watch_skips_sessions_without_timeline(self):
        obs = Obs(FakeSim(), label="bare").install()
        engine = AlertEngine()
        engine.watch(obs)
        assert engine._watched == []

    def test_repeated_watch_does_not_stack_subscribers(self):
        # Regression: a second watch() on the same session used to add a
        # second subscriber, so every sample streamed through the rules
        # twice — a for_samples=2 rule then fired on a SINGLE breaching
        # sample (streak counted 2), and alerts were double-evaluated.
        rule = AlertRule("hot", series="w", op=">", threshold=1.0,
                         for_samples=2)
        obs, engine = make_session(rules=[rule])
        engine.watch(obs)          # re-watch: must be a no-op
        engine.watch(obs)
        assert len(engine._watched) == 1
        assert len(obs.timeline._subscribers) == 1
        obs.timeline.record("w", 0, 2.0)
        assert engine.alerts == []     # one sample is NOT a streak of 2
        obs.timeline.record("w", 1, 2.0)
        assert len(engine.alerts) == 1


class TestDefaultRules:
    def test_cover_the_documented_slos(self):
        names = {rule.name for rule in default_rules()}
        assert names == {"cap.compliance", "node.cap.compliance",
                         "placement.drop_rate", "tenant.starvation",
                         "trace.unfinished_spans"}

    def test_unfinished_spans_is_at_end(self):
        rule = next(r for r in default_rules()
                    if r.name == "trace.unfinished_spans")
        assert rule.at_end
