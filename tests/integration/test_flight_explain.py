"""Seeded end-to-end: blinded daemon -> alert -> flight dump -> explain.

The issue's acceptance scenario: a two-node cluster under a far-too-tight
budget, with ``powercap.telemetry`` corrupt injected on **node00 only**
(its daemon reuses stale leaf readings all run).  The ``cap.compliance``
SLO must fire, the armed flight recorder must write a self-contained dump,
and ``explain`` over that dump must name the faulted site on the faulted
node — and rank tenants — identically across two fresh runs.
"""

import json
import os

import pytest

from repro.cluster import (
    USERS_PER_INSTANCE,
    Cluster,
    ClusterConfig,
    ClusterTelemetry,
    ClusterTopology,
    WaterFillingAllocator,
    WorkloadSpec,
)
from repro.faults import FaultPlan
from repro.obs.explain import explain, format_incidents, load, render_json
from repro.obs.runtime import ObsRun, observe

HORIZON_S = 1.2
EPOCH_MS = 200
SEED = 5


def spec(name, kind="web", tenant="t0", start_s=0.0, end_s=HORIZON_S):
    return WorkloadSpec(name=name, tenant=tenant, kind=kind, start_s=start_s,
                        end_s=end_s, users=USERS_PER_INSTANCE)


def blinded_run(flight_dir):
    """One full cluster run with telemetry + flight armed, node00 blinded."""
    run = ObsRun(telemetry=True, flight=True, flight_dir=flight_dir)
    with observe(run):
        topo = ClusterTopology.uniform(2)
        by_node = {
            "node00": [spec("a.web"),
                       spec("a.render", kind="render", start_s=0.1,
                            end_s=1.0)],
            "node01": [spec("b.web", tenant="t1"),
                       spec("b.bulk", tenant="t1", kind="bulk", start_s=0.1,
                            end_s=1.0)],
        }
        config = ClusterConfig(budget_w=1.0, horizon_s=HORIZON_S,
                               epoch_ms=EPOCH_MS)
        telemetry = ClusterTelemetry.for_runtime(label="cap-loop")
        cluster = Cluster(topo, by_node, WaterFillingAllocator(), config,
                          seed=SEED, telemetry=telemetry)
        blinded = cluster.nodes[0]
        assert blinded.name == "node00"
        plan = FaultPlan(blinded.platform.sim, enabled=True)
        plan.add("powercap.telemetry", "corrupt", prob=1.0)
        plan.install()
        cluster.run()
    run.finalize()
    assert run.flight.flush() > 0
    return run.flight


@pytest.fixture(scope="module")
def twice(tmp_path_factory):
    """The same seeded run done twice, dumping into separate directories."""
    dir_a = str(tmp_path_factory.mktemp("flight-a"))
    dir_b = str(tmp_path_factory.mktemp("flight-b"))
    blinded_run(dir_a)
    blinded_run(dir_b)
    return dir_a, dir_b


def _report(flight_dir):
    report = explain(load(flight_dir))
    report["source"] = "<flight>"     # only the tmp path differs by design
    return report


def _compliance_incident(report):
    matches = [i for i in report["incidents"]
               if i["trigger"]["rule"] == "cap.compliance"]
    assert matches, "cap.compliance never fired"
    return matches[0]


def test_blinded_daemon_fires_and_dumps(twice):
    flight_dir, _ = twice
    names = sorted(os.listdir(flight_dir))
    assert "manifest.json" in names
    assert "flight-000.json" in names
    manifest = json.loads(
        open(os.path.join(flight_dir, "manifest.json")).read())
    assert any(t.get("rule") == "cap.compliance"
               for t in manifest["triggers"])


def test_dump_is_self_contained_evidence(twice):
    flight_dir, _ = twice
    report = _report(flight_dir)
    incident = _compliance_incident(report)
    # the breach window covers the breached series with real samples
    assert incident["breached"]["series"] == "cluster.compliance_err"
    assert incident["breached"]["session"] == "cap-loop"
    assert incident["breached"]["points_in_window"] >= 4
    assert incident["breached"]["max"] > 0.01


def test_explain_names_the_faulted_node(twice):
    flight_dir, _ = twice
    incident = _compliance_incident(_report(flight_dir))
    sites = {s["site"]: s for s in incident["injection_sites"]}
    assert "powercap.telemetry" in sites
    site = sites["powercap.telemetry"]
    assert site["count"] > 0
    # only node00 was blinded: every injecting session is node00's
    assert site["sessions"]
    assert all("node00" in session for session in site["sessions"])
    assert all("node01" not in session for session in site["sessions"])


def test_explain_ranks_the_tenants(twice):
    flight_dir, _ = twice
    incident = _compliance_incident(_report(flight_dir))
    ranked = incident["attribution"]["tenants"]["policies"]["per_sample"]
    assert {row["entity"] for row in ranked} == {"t0", "t1"}
    assert incident["top"]["tenants"] in ("t0", "t1")
    # shares are a ranked, normalized split of the window energy
    assert ranked[0]["share"] >= ranked[1]["share"]
    assert ranked[0]["share"] + ranked[1]["share"] == pytest.approx(
        1.0, abs=1e-6)


def test_text_report_tells_the_story(twice):
    flight_dir, _ = twice
    text = format_incidents(_report(flight_dir))
    assert "cap.compliance" in text
    assert "powercap.telemetry" in text
    assert "top tenant" in text


def test_dump_and_report_are_run_deterministic(twice):
    dir_a, dir_b = twice
    # the first dump is byte-identical across the two fresh runs
    dump_a = open(os.path.join(dir_a, "flight-000.json")).read()
    dump_b = open(os.path.join(dir_b, "flight-000.json")).read()
    assert dump_a == dump_b
    # and so is the rendered incident report (modulo the tmp dir name)
    assert render_json(_report(dir_a)) == render_json(_report(dir_b))
