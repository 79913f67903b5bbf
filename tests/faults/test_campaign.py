"""Campaign classification over representative scenarios.

The full 14-scenario matrix (including the slower powercap workload) runs
in CI's nightly soak; tier-1 keeps a representative subset of one
detected and one tolerated scenario per fault family.
"""

import pytest

from repro.experiments.faults_exp import run_faults, run_scenario, soak_seeds
from repro.faults import scenario
from repro.obs import metrics_snapshot
from repro.obs.runtime import ObsRun, observe


@pytest.mark.parametrize("name, expect_invariant", [
    ("ipi-drop", "shootdown_liveness"),
    ("gpu-drain-stuck", "drain_liveness"),
    ("governor-restore-corrupt", "vstate_restore"),
])
def test_detected_scenarios_name_the_broken_invariant(name, expect_invariant):
    outcome = run_scenario(scenario(name), seed=0)
    assert outcome.matches
    assert outcome.outcome == "detected"
    assert expect_invariant in outcome.first_violation


@pytest.mark.parametrize("name", ["ipi-delay", "task-crash", "meter-noise"])
def test_tolerated_scenarios_inject_but_stay_clean(name):
    outcome = run_scenario(scenario(name), seed=0)
    assert outcome.matches
    assert outcome.outcome == "tolerated"
    assert outcome.injections > 0
    assert outcome.violations == 0


def test_armed_scenario_that_never_fires_is_a_mismatch():
    scn = scenario("ipi-delay")
    # empty active window [0, 0): armed spec that can never fire
    import dataclasses
    never = dataclasses.replace(scn, faults=(
        ("smp.ipi", "delay", {"extra_ns": 10, "t1": 0}),
    ))
    outcome = run_scenario(never, seed=0)
    assert outcome.injections == 0
    assert not outcome.matches


def test_a_second_observed_run_records_what_the_first_did():
    """Regression: the uncapped powercap measurement was memoised per
    seed, so a second observed run in one process recorded one boot fewer
    than the first, and other counts."""
    snapshots = []
    for _ in range(2):
        with observe(ObsRun()) as run:
            run_scenario(scenario("powercap-stale"), seed=0)
        snapshots.append(metrics_snapshot(run.sessions))
    # the uncapped measurement's boot, then the capped scenario's
    assert len(snapshots[0]["sessions"]) == 2
    assert snapshots[1] == snapshots[0]


def test_campaign_runs_a_named_subset():
    result = run_faults(seed=0, scenarios=[scenario("baseline"),
                                           scenario("ipi-drop")])
    assert result.ok
    assert [o.name for o in result.outcomes] == ["baseline", "ipi-drop"]


def test_soak_seed_list_is_deterministic():
    assert soak_seeds(5, entropy=42) == soak_seeds(5, entropy=42)
    assert len(set(soak_seeds(25, entropy=0))) == 25
