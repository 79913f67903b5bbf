"""Tiny spawn-safe cell runners for tests and benchmarks.

Real cells live next to their experiments (e.g.
``repro.experiments.faults_exp:run_scenario_cell``); these exist so the
runner, shard, and cache machinery can be exercised without booting a
full platform — and from spawned workers, which import runners by dotted
name and therefore cannot reach functions defined inside test modules.
"""

import time


def square_cell(seed, config):
    """Pure arithmetic: deterministic, instant."""
    return {"seed": seed, "value": seed * seed + config.get("offset", 0)}


def sleep_cell(seed, config):
    """Burn ``config["s"]`` wall seconds; for scheduling/scaling tests."""
    time.sleep(config.get("s", 0.01))
    return {"seed": seed}


def sim_cell(seed, config):
    """Boot a real :class:`Simulator` and run a chained-event loop.

    Inside an observed run it records a counter, a histogram and a gauge
    (the seed: last writer wins, so the merge order shows).
    """
    from repro.obs import runtime as obs_runtime
    from repro.sim.engine import Simulator

    sim = Simulator(seed=seed)
    obs = obs_runtime.install(sim)   # no-op outside an observed run
    fired = [0]

    def ping():
        fired[0] += 1
        sim.call_later(1000, ping)

    ping()
    sim.run(until=config.get("horizon_ns", 1_000_000))
    if obs is not None:
        obs.metrics.inc("par.testing.pings", fired[0])
        obs.metrics.observe("par.testing.horizon_ns", sim.now)
        obs.metrics.set("par.testing.seed", seed)
    return {"seed": seed, "now": sim.now, "fired": fired[0]}


def boom_cell(seed, config):
    """Always raises; error-path coverage."""
    raise RuntimeError("boom (seed={})".format(seed))


def mixed_cell(seed, config):
    """Raises for seeds listed in ``config["boom_seeds"]``; succeeds
    otherwise — partial-failure coverage for the streaming runner."""
    if seed in config.get("boom_seeds", ()):
        raise RuntimeError("boom (seed={})".format(seed))
    return {"seed": seed, "value": seed * seed}
