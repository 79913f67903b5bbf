"""The explain engine: loaders, incident walk, renderers, determinism."""

import json
import os

from repro.obs.explain import (
    Evidence,
    evidence_from_dump,
    explain,
    format_incidents,
    load,
    load_bundle,
    overlay_trace_events,
    render_json,
    write_reports,
)
from repro.obs.timeline import canonical_labels, series_key

# a 1 kHz-ish cadence so windows stay in easy integers: gap = 100 ns
GAP = 100


def _alert(rule="cap.compliance", session="node00", series="powercap.err",
           labels=None, t_ns=1000, streak=3, value=0.5,
           message="err 0.50 > 0.01"):
    return {"rule": rule, "severity": "critical", "session": session,
            "series": series, "labels": dict(labels or {}), "t_ns": t_ns,
            "value": value, "streak": streak, "message": message}


def _evidence():
    """A hand-built incident: breach at t=1000, cadence 100 ns.

    Window: t0 = 1000 - 4*100 = 600, t1 = 1000 + 2*100 = 1200.
    """
    ev = Evidence("<test>", "bundle")
    # breached series: flat then ramps into the breach
    ev.add_series("node00", "powercap.err", {},
                  [(t, 0.0 if t < 700 else (t - 600) / 1000.0)
                   for t in range(0, 1300, GAP)])
    # tracks the breach exactly (r == +1 on the window grid)
    ev.add_series("node00", "follower.w", {},
                  [(t, 0.0 if t < 700 else (t - 600) / 500.0)
                   for t in range(0, 1300, GAP)])
    # constant: no variance, must be excluded from the shortlist
    ev.add_series("node00", "flat.w", {},
                  [(t, 5.0) for t in range(0, 1300, GAP)])
    # outside the window entirely: excluded (too few in-window points)
    ev.add_series("node00", "early.w", {}, [(0, 1.0), (100, 2.0)])
    # attribution inputs: 3 W aggregate split 2:1 across two leaves
    ev.add_series("node00", "powercap.aggregate_w", {}, [(0, 3.0)])
    ev.add_series("node00", "powercap.leaf_measured_w", {"leaf": "big"},
                  [(0, 2.0)])
    ev.add_series("node00", "powercap.leaf_measured_w", {"leaf": "small"},
                  [(0, 1.0)])
    ev.alerts = [_alert()]
    ev.actions = [
        {"kind": "action", "session": "node00", "node": "t0.web",
         "t_ns": 800, "action": "throttle", "level": 0.5},
        {"kind": "action", "session": "node00", "node": "t0.web",
         "t_ns": 900, "action": "hold", "level": 0.5},      # filtered
        {"kind": "action", "session": "node00", "node": "t0.web",
         "t_ns": 5000, "action": "throttle", "level": 0.25},  # outside
    ]
    ev.injections = [
        {"kind": "inject", "session": "node00", "t_ns": 700,
         "site": "powercap.telemetry", "fault": "corrupt"},
        {"kind": "inject", "session": "node00", "t_ns": 750,
         "site": "powercap.telemetry", "fault": "corrupt"},
        {"kind": "inject", "session": "node00", "t_ns": 5000,
         "site": "powercap.telemetry", "fault": "corrupt"},  # outside
    ]
    return ev


class TestSeriesKey:
    """The one formatter of a series' identity, as explain's ``series``
    fields and ``Series.key`` write it."""

    def test_bare_name(self):
        assert series_key("power.w", ()) == "power.w"

    def test_labels_sorted_into_braces(self):
        labels = {"node": "n0", "app": "web"}
        key = series_key("power.w", canonical_labels(labels))
        assert key == "power.w{app=web,node=n0}"
        assert key == series_key("power.w", sorted(labels.items()))


class TestIncidentWalk:
    def test_window_from_streak_and_cadence(self):
        report = explain(_evidence())
        (incident,) = report["incidents"]
        window = incident["window"]
        assert window["gap_ns"] == GAP
        assert window["t0_ns"] == 1000 - 4 * GAP   # (streak+1) * gap
        assert window["t1_ns"] == 1000 + 2 * GAP   # POST_SAMPLES * gap

    def test_breached_series_summary(self):
        (incident,) = explain(_evidence())["incidents"]
        breached = incident["breached"]
        assert breached["series"] == "powercap.err"
        assert breached["session"] == "node00"
        assert breached["points_in_window"] == 6    # 600..1100
        assert breached["max"] == 0.5

    def test_correlation_ranks_the_follower_excludes_flat(self):
        (incident,) = explain(_evidence())["incidents"]
        names = [row["series"] for row in incident["correlated"]]
        assert names[0] == "follower.w"
        assert incident["correlated"][0]["r"] == 1.0
        assert "flat.w" not in names        # constant: no correlation
        assert "early.w" not in names       # not enough window points

    def test_attribution_names_the_big_leaf(self):
        (incident,) = explain(_evidence())["incidents"]
        assert incident["top"]["sandboxes"] == "node00/big"
        ranked = incident["attribution"]["sandboxes"]["policies"][
            "per_sample"]
        assert [row["entity"] for row in ranked] == [
            "node00/big", "node00/small"]

    def test_discrete_events_filtered_to_window(self):
        (incident,) = explain(_evidence())["incidents"]
        assert incident["actions_total"] == 1      # hold + outside dropped
        assert incident["actions"][0]["t_ns"] == 800
        assert incident["injections_total"] == 2
        (site,) = incident["injection_sites"]
        assert site["site"] == "powercap.telemetry"
        assert site["count"] == 2
        assert site["sessions"] == ["node00"]

    def test_missing_series_still_yields_incident(self):
        ev = Evidence("<test>", "bundle")
        ev.alerts = [_alert(series="nowhere")]
        (incident,) = explain(ev)["incidents"]
        assert incident["breached"] is None
        assert incident["correlated"] == []
        assert incident["window"]["gap_ns"] == 250_000_000   # default

    def test_episodes_sorted_and_numbered(self):
        ev = _evidence()
        ev.alerts = [_alert(t_ns=1000), _alert(t_ns=900, rule="other")]
        report = explain(ev)
        assert [i["trigger"]["t_ns"] for i in report["incidents"]] == [
            900, 1000]
        assert [i["id"] for i in report["incidents"]] == [0, 1]


class TestDumpEvidence:
    def _dump(self, trigger=None):
        return {
            "format": "psbox-flight", "version": 1,
            "trigger": trigger or {"type": "alert", "rule": "hot"},
            "sessions": [{
                "label": "node00",
                "series": [{"name": "w", "labels": {},
                            "points": [[0, 1.0], [100, 2.0]]}],
                "injections": [{"site": "s", "fault": "corrupt",
                                "t_ns": 50}],
            }],
            "actions": [{"t": 60, "node": "n", "action": "throttle"}],
            "alerts": [_alert(series="w", t_ns=100, streak=1)],
        }

    def test_sessions_actions_injections_normalized(self):
        ev = evidence_from_dump(self._dump())
        assert ev.kind == "flight"
        assert ev.find_series("w", session="node00")
        assert ev.actions[0]["t_ns"] == 60        # "t" renamed
        assert ev.injections[0]["session"] == "node00"
        assert len(ev.alerts) == 1

    def test_violation_trigger_synthesizes_episode(self):
        dump = self._dump(trigger={
            "type": "violation", "invariant": "balloon.exclusive",
            "component": "smp", "t_ns": 77, "message": "intruder"})
        dump["alerts"] = []
        ev = evidence_from_dump(dump)
        (incident,) = explain(ev)["incidents"]
        assert incident["trigger"]["rule"] == "check.balloon.exclusive"
        assert incident["trigger"]["t_ns"] == 77

    def test_list_evidence_merges_and_dedups(self):
        # two dumps captured the same episode: one incident, not two
        ev_a = evidence_from_dump(self._dump(), source="a")
        ev_b = evidence_from_dump(self._dump(), source="b")
        report = explain([ev_a, ev_b])
        assert report["source"] == ["a", "b"]
        assert len(report["incidents"]) == 1
        assert report["incidents"][0]["id"] == 0


class TestLoaders:
    def _write_bundle(self, path):
        os.makedirs(path)
        ev = _evidence()
        with open(os.path.join(path, "series.jsonl"), "w") as handle:
            for entry in ev.series:
                handle.write(json.dumps({
                    "session": entry["session"], "series": entry["name"],
                    "labels": entry["labels"],
                    "points": [list(p) for p in entry["points"]],
                }) + "\n")
        with open(os.path.join(path, "report.json"), "w") as handle:
            json.dump({"alerts": ev.alerts}, handle)
        with open(os.path.join(path, "events.jsonl"), "w") as handle:
            for doc in ev.actions + ev.injections:
                handle.write(json.dumps(doc) + "\n")

    def test_load_bundle_round_trips_the_report(self, tmp_path):
        bundle = str(tmp_path / "telemetry")
        self._write_bundle(bundle)
        ev = load(bundle)
        assert ev.kind == "bundle"
        in_memory = explain(_evidence())
        from_disk = explain(ev)
        in_memory["source"] = from_disk["source"] = "X"
        assert render_json(from_disk) == render_json(in_memory)

    def test_load_flight_dir_and_file(self, tmp_path):
        dump = TestDumpEvidence()._dump()
        path = tmp_path / "flight" / "flight-000.json"
        path.parent.mkdir()
        path.write_text(json.dumps(dump))
        assert load(str(path)).kind == "flight"        # single file
        loaded = load(str(path.parent))                # directory
        assert isinstance(loaded, list) and len(loaded) == 1

    def test_load_rejects_unrecognized_paths(self, tmp_path):
        try:
            load(str(tmp_path))       # empty dir: neither bundle nor dumps
        except FileNotFoundError:
            pass
        else:
            raise AssertionError("expected FileNotFoundError")
        try:
            load(str(tmp_path / "missing"))
        except FileNotFoundError:
            pass
        else:
            raise AssertionError("expected FileNotFoundError")

    def test_load_bundle_without_sidecars(self, tmp_path):
        bundle = tmp_path / "telemetry"
        bundle.mkdir()
        (bundle / "series.jsonl").write_text("")
        ev = load_bundle(str(bundle))
        assert ev.alerts == [] and ev.actions == []
        assert explain(ev)["incidents"] == []


class TestRenderers:
    def test_render_json_is_deterministic(self):
        a = render_json(explain(_evidence()))
        b = render_json(explain(_evidence()))
        assert a == b
        json.loads(a)                      # valid JSON, trailing newline
        assert a.endswith("\n")

    def test_format_incidents_mentions_the_story(self):
        text = format_incidents(explain(_evidence()))
        assert "cap.compliance" in text
        assert "top sandbox" in text        # singularized, no "sandboxe"
        assert "sandboxe " not in text
        assert "powercap.telemetry x2" in text
        assert "follower.w" in text
        assert "1 actuator change(s)" in text

    def test_format_incidents_empty(self):
        ev = Evidence("<none>", "bundle")
        assert "no alert episodes" in format_incidents(explain(ev))

    def test_overlay_trace_is_chrome_shaped(self):
        events = overlay_trace_events(explain(_evidence()))
        json.dumps(events)
        phs = {e["ph"] for e in events}
        assert phs == {"M", "i", "C"}
        pids = {e["pid"] for e in events}
        assert pids == {1000}               # 1000 + incident id
        counters = [e for e in events if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "attributed.node00/big" in names

    def test_write_reports_creates_all_three(self, tmp_path):
        out = str(tmp_path / "reports")
        paths = write_reports(explain(_evidence()), out)
        assert [os.path.basename(p) for p in paths] == [
            "incidents.json", "incidents.txt", "incident_trace.json"]
        for path in paths:
            assert os.path.getsize(path) > 0
        doc = json.loads(open(paths[0]).read())
        assert doc["format"] == "psbox-incidents"
