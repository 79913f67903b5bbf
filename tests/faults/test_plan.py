"""Unit tests of the fault-plan mechanics (arming, gating, typed queries)."""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=3)


def test_no_plan_installed_by_default(sim):
    assert sim.faults is None


def test_install_and_uninstall(sim):
    plan = FaultPlan(sim).install()
    assert sim.faults is plan
    plan.uninstall()
    assert sim.faults is None


def test_disabled_plan_queries_are_pure_reads(sim):
    plan = FaultPlan(sim, enabled=False)
    plan.add("smp.ipi", "delay", extra_ns=100, jitter_ns=50)
    plan.add("smp.ipi", "drop", prob=1.0)
    plan.add("meter.sample", "noise", noise_w=1.0)
    plan.add("meter.sample", "dropout", fraction=1.0)
    plan.install()
    watts = np.ones(5)
    assert plan.delay("smp.ipi", 7) == 7
    assert plan.drops("smp.ipi") is False
    assert plan.hold_ns("gpu.drain") == 0
    assert plan.corrupts("governor.restore") is False
    assert plan.sample_noise("meter.sample", watts) is watts
    assert plan.sample_dropout("meter.sample", watts) is watts
    assert plan.injections() == 0
    # crucially: no RNG stream was ever touched
    assert not any(name.startswith("faults.")
                   for name in sim.rng._streams)


def test_unarmed_site_queries_are_pure_reads(sim):
    plan = FaultPlan(sim).install()   # enabled, but no specs
    assert plan.delay("smp.ipi", 7) == 7
    assert plan.drops("smp.ipi") is False
    assert plan.injections() == 0
    assert not any(name.startswith("faults.")
                   for name in sim.rng._streams)


def test_delay_adds_extra_within_jitter_and_logs(sim):
    plan = FaultPlan(sim).install()
    plan.add("smp.ipi", "delay", extra_ns=100, jitter_ns=50)
    for _ in range(20):
        delayed = plan.delay("smp.ipi", 7)
        assert 107 <= delayed < 157
    assert plan.injections() == 20
    assert plan.injections("smp.ipi") == 20
    assert plan.injections("gpu.drain") == 0
    t, kind, payload = next(iter(plan.log))
    assert kind == "inject"
    assert payload["site"] == "smp.ipi"
    assert payload["fault"] == "delay"


def test_probability_gates_each_opportunity(sim):
    plan = FaultPlan(sim).install()
    plan.add("smp.ipi", "drop", prob=0.0)
    assert not any(plan.drops("smp.ipi") for _ in range(50))
    plan.add("gpu.drain", "hold", prob=1.0, extra_ns=5)
    assert all(plan.hold_ns("gpu.drain") == 5 for _ in range(10))


def test_time_window_bounds_arming(sim):
    plan = FaultPlan(sim).install()
    plan.add("smp.ipi", "drop", t0=100, t1=200)
    seen = {}
    for t in (50, 150, 250):
        sim.at(t, lambda t=t: seen.__setitem__(t, plan.drops("smp.ipi")))
    sim.run(until=300)
    assert seen == {50: False, 150: True, 250: False}


def test_limit_caps_total_injections(sim):
    plan = FaultPlan(sim).install()
    plan.add("smp.ipi", "drop", limit=2)
    results = [plan.drops("smp.ipi") for _ in range(5)]
    assert results == [True, True, False, False, False]
    assert plan.injections() == 2


def test_dropout_forward_fills_and_zeroes_leading_losses(sim):
    plan = FaultPlan(sim).install()
    plan.add("meter.sample", "dropout", fraction=1.0)
    watts = np.array([1.0, 2.0, 3.0])
    assert plan.sample_dropout("meter.sample", watts).tolist() == [0, 0, 0]


def test_noise_never_goes_negative(sim):
    plan = FaultPlan(sim).install()
    plan.add("meter.sample", "noise", noise_w=100.0)
    noisy = plan.sample_noise("meter.sample", np.full(200, 0.01))
    assert (noisy >= 0).all()
    assert not np.allclose(noisy, 0.01)


def test_same_seed_same_decisions():
    outcomes = []
    for _ in range(2):
        sim = Simulator(seed=9)
        plan = FaultPlan(sim).install()
        plan.add("smp.ipi", "delay", extra_ns=10, jitter_ns=1000, prob=0.5)
        outcomes.append([plan.delay("smp.ipi", 0) for _ in range(30)])
    assert outcomes[0] == outcomes[1]
