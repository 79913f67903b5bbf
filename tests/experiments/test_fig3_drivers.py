"""Integration tests for the Figure 3 entanglement drivers."""

import pytest

from repro.experiments.fig3 import (
    run_fig3a_spatial,
    run_fig3b_requests,
    run_fig3c_lingering,
)
from repro.sim.clock import MSEC


@pytest.fixture(scope="module")
def fig3a():
    return run_fig3a_spatial(duration=400 * MSEC)


def test_fig3a_doubling_overestimates(fig3a):
    """2x one instance overestimates two co-running instances."""
    assert fig3a.mean_one_doubled > 1.1 * fig3a.mean_two
    assert fig3a.overestimate_pct > 10


def test_fig3a_traces_well_formed(fig3a):
    assert len(fig3a.times) == len(fig3a.watts_two_instances)
    assert (fig3a.watts_two_instances > 0).all()


def test_fig3b_commands_overlap():
    result = run_fig3b_requests()
    assert result.overlap_ns > MSEC
    # numbered as in the figure, whatever ran before in this process
    assert [n for n, _k, _d, _notify in result.commands] == [1, 2, 3]
    # Every command got a completion notification.
    assert all(notify is not None for _s, _k, _d, notify in result.commands)


def test_fig3b_power_rises_during_overlap():
    result = run_fig3b_requests()
    c1 = result.commands[0]
    c2 = result.commands[1]
    import numpy as np
    t = np.asarray(result.times)
    solo = result.watts[(t >= c1[2]) & (t < c2[2])]
    both = result.watts[(t >= c2[2]) & (t < min(c1[3], c2[3]))]
    assert both.mean() > solo.mean()


def test_fig3c_lingering_state_changes_power():
    result = run_fig3c_lingering()
    assert result.mean_after_busy > 1.1 * result.mean_after_idle
    # The effect concentrates early: first 30 ms differ the most.
    early_idle = result.watts_after_idle[:30].mean()
    early_busy = result.watts_after_busy[:30].mean()
    assert early_busy > 1.5 * early_idle
