"""Fault-injection campaign: scenario matrix vs. the invariant checker.

Runs every named scenario in :mod:`repro.faults.scenarios` with its plan
armed and an :class:`~repro.check.InvariantChecker` attached, then
classifies each run: **tolerated** (faults injected, all invariants held)
or **detected** (the checker reported violations naming event, time and
component).  A campaign passes when every scenario lands on its expected
side — i.e. no fault is ever silently absorbed into corrupted state.

Two workloads back the matrix:

* ``mixed`` — the full board with two sandboxed CPU apps, a sandboxed GPU
  client and a sandboxed WiFi client, each contending with unsandboxed
  rivals, so spatial balloons, temporal balloons, loans and vmeter windows
  are all continuously exercised;
* ``powercap`` — the two-tenant capped scenario from
  :mod:`repro.experiments.powercap_exp`, with the checker also watching
  the daemon's root cap.

``python -m repro.experiments faults`` runs one campaign at seed 0, and
``--seeds N`` soaks it at N seeds (the nightly job); the command exits 1
when any scenario misses its expectation.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.analysis.report import format_table
from repro.apps.base import App
from repro.check import InvariantChecker
from repro.experiments.common import boot
from repro.experiments.powercap_exp import (
    _scenario as _powercap_scenario,
    build_bindings,
    build_budget_tree,
)
from repro.faults import DETECTED, SCENARIOS, TOLERATED, TaskCrashInjector, scenario
from repro.par import ParallelRunner, ResultCache, work_list
from repro.kernel.actions import Compute, SendPacket, Sleep, SubmitAccel
from repro.powercap import PowerCapController
from repro.sim.clock import SEC, from_msec, from_usec


@dataclass
class Workload:
    platform: object
    kernel: object
    boxes: dict                  # label -> entered PowerSandbox
    crash_targets: list          # (app, behavior_factory) for TaskCrashInjector
    horizon_ns: int
    controller: object = None    # powercap daemon, when the workload has one


# -- workload builders ------------------------------------------------------------

MIXED_HORIZON_S = 1.2
POWERCAP_MEASURE_S = 2.0
POWERCAP_HORIZON_S = 3.5
POWERCAP_CAP_FRACTION = 0.70


def _cpu_behavior(app, burst, pause_ns):
    def behavior():
        while True:
            yield Compute(burst)
            app.count("work", 1)
            yield Sleep(pause_ns)

    return behavior


def _gpu_behavior(app, cycles=2e6, power=0.6, gap_ns=from_usec(500)):
    def behavior():
        while True:
            yield SubmitAccel("gpu", "draw", cycles, power, wait=True)
            app.count("frames", 1)
            yield Sleep(gap_ns)

    return behavior


def _net_behavior(app, size=24_000, gap_ns=from_usec(2000)):
    def behavior():
        while True:
            yield SendPacket(size, wait=True)
            app.count("packets", 1)
            yield Sleep(gap_ns)

    return behavior


def _mixed_workload(seed):
    """Full board; CPU/GPU/WiFi sandboxes contending with rivals."""
    platform, kernel = boot(seed=seed)
    crash_targets = []

    def add(name, make_behavior, *params):
        app = App(kernel, name)
        factory = make_behavior(app, *params)
        app.spawn(factory())
        crash_targets.append((app, factory))
        return app

    boxed_one = add("boxed.one", _cpu_behavior, 4e6, from_usec(150))
    boxed_two = add("boxed.two", _cpu_behavior, 3.5e6, from_usec(250))
    add("rival.one", _cpu_behavior, 3e6, from_usec(200))
    add("rival.two", _cpu_behavior, 2.5e6, from_usec(300))
    boxed_gpu = add("boxed.gpu", _gpu_behavior)
    add("rival.gpu", _gpu_behavior, 1.5e6, 0.5, from_usec(700))
    boxed_net = add("boxed.net", _net_behavior)
    add("rival.net", _net_behavior, 16_000, from_usec(2600))

    boxes = {
        "one.cpu": boxed_one.create_psbox(("cpu",)),
        "two.cpu": boxed_two.create_psbox(("cpu",)),
        "gpu": boxed_gpu.create_psbox(("gpu",)),
        "net": boxed_net.create_psbox(("wifi",)),
    }
    for box in boxes.values():
        box.enter()
    return Workload(platform, kernel, boxes, crash_targets,
                    horizon_ns=int(MIXED_HORIZON_S * SEC))


def _uncapped_aggregate(seed):
    """The uncapped two-tenant mix's aggregate power, measured afresh.

    It is measured on every call, so each observed run that builds a
    powercap workload records this boot too.
    """
    platform, kernel, _apps, _boxes = _powercap_scenario(seed)
    platform.sim.run(until=int(POWERCAP_MEASURE_S * SEC))
    aggregate = platform.aggregate_power(int(1.0 * SEC),
                                         int(POWERCAP_MEASURE_S * SEC))
    kernel.shutdown()
    return aggregate


def _powercap_workload(seed):
    """The two-tenant capped mix, daemon started, cap at 70% of peak."""
    cap_w = POWERCAP_CAP_FRACTION * _uncapped_aggregate(seed)
    platform, kernel, apps, boxes = _powercap_scenario(seed)
    controller = PowerCapController(
        kernel, build_budget_tree(cap_w), build_bindings(kernel, apps, boxes)
    ).start()
    return Workload(platform, kernel, boxes, crash_targets=[],
                    horizon_ns=int(POWERCAP_HORIZON_S * SEC),
                    controller=controller)


WORKLOADS = {"mixed": _mixed_workload, "powercap": _powercap_workload}


def build_workload(name, seed):
    return WORKLOADS[name](seed)


# -- running one scenario ---------------------------------------------------------


@dataclass
class ScenarioOutcome:
    name: str
    workload: str
    expect: str
    injections: int
    violations: int
    checks: int
    outcome: str
    matches: bool
    first_violation: str = ""


def run_scenario(scn, seed=0, inject=True, check=True, config=None):
    """Run one scenario end to end and classify the outcome."""
    work = build_workload(scn.workload, seed)
    plan = scn.build_plan(work.platform.sim, enabled=inject)
    checker = None
    if check:
        checker = InvariantChecker(work.kernel, config=config).attach()
        if work.controller is not None:
            checker.watch_powercap(work.controller)
    if any(site == TaskCrashInjector.SITE for site, _kind, _p in scn.faults):
        TaskCrashInjector(work.kernel, work.crash_targets).start()
    work.platform.sim.run(until=work.horizon_ns)
    for box in work.boxes.values():
        # exercise the meter.sample site the way an app would
        if box.entered:
            box.sample(dt=from_msec(5))

    injections = plan.injections()
    violations = len(checker.report.violations) if checker else 0
    checks = checker.report.checks if checker else 0
    outcome = DETECTED if violations else TOLERATED
    matches = outcome == scn.expect
    if inject and scn.faults and injections == 0:
        matches = False    # armed but never fired: the run proves nothing
    first = str(checker.report.violations[0]) if violations else ""
    if checker is not None:
        checker.detach()
    work.kernel.shutdown()
    return ScenarioOutcome(
        name=scn.name, workload=scn.workload, expect=scn.expect,
        injections=injections, violations=violations, checks=checks,
        outcome=outcome, matches=matches, first_violation=first,
    )


# -- the campaign -----------------------------------------------------------------


@dataclass
class CampaignResult:
    seed: int
    outcomes: list

    @property
    def ok(self):
        return all(outcome.matches for outcome in self.outcomes)

    @property
    def mismatches(self):
        return [outcome for outcome in self.outcomes if not outcome.matches]


def run_faults(seed=0, scenarios=SCENARIOS):
    """Run the whole scenario matrix at one seed."""
    return CampaignResult(
        seed=seed,
        outcomes=[run_scenario(scn, seed=seed) for scn in scenarios],
    )


def soak_seeds(n, entropy=0):
    """The nightly soak's seed list: ``n`` words from one seed sequence."""
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(n)]


# -- the parallel campaign (repro.par) --------------------------------------------


#: the dotted entry point spawn-started workers import
CELL_RUNNER = "repro.experiments.faults_exp:run_scenario_cell"


def run_scenario_cell(seed, config):
    """Spawn-safe cell runner: one (scenario, seed) cell of the campaign."""
    outcome = run_scenario(scenario(config["scenario"]), seed=seed)
    return asdict(outcome)


def fingerprint_cell(seed, config):
    """Spawn-safe cell: run a workload, return its sha256 trace fingerprint.

    The differential tests use this to prove the worker protocol itself is
    bit-clean: a workload booted inside a spawned worker must fingerprint
    identically to the same workload booted in the parent process.
    """
    from repro.faults import fingerprint

    work = build_workload(config.get("workload", "mixed"), seed)
    work.platform.sim.run(until=work.horizon_ns)
    digest = fingerprint(work.platform, work.kernel)
    work.kernel.shutdown()
    return {"fingerprint": digest}


def campaign_items(seeds, scenarios=SCENARIOS):
    """The campaign's work-list: seed-major, scenario order within a seed."""
    return work_list(
        "faults", CELL_RUNNER,
        [(int(seed), {"scenario": scn.name})
         for seed in seeds for scn in scenarios],
    )


def run_faults_parallel(seeds, jobs=1, cache=None, scenarios=SCENARIOS):
    """The scenario matrix at many seeds, fanned across ``jobs`` processes.

    Cells are bit-reproducible and the merge orders by shard key, so the
    returned campaigns are identical to ``[run_faults(s) for s in seeds]``
    no matter the job count, execution path, or cache state.  Returns
    ``(campaigns, runner)`` — the runner carries stats and the aggregated
    per-worker obs metrics.
    """
    runner = ParallelRunner(jobs=jobs, cache=cache)
    payloads = runner.run(campaign_items(seeds, scenarios))
    per_seed = len(scenarios)
    campaigns = [
        CampaignResult(
            seed=int(seed),
            outcomes=[ScenarioOutcome(**payload)
                      for payload in payloads[i * per_seed:(i + 1) * per_seed]],
        )
        for i, seed in enumerate(seeds)
    ]
    return campaigns, runner


def campaign_summary_lines(campaign):
    """The soak report's lines for one campaign."""
    lines = ["seed {:>10}: {:2d}/{} scenarios matched  [{}]".format(
        campaign.seed, len(campaign.outcomes) - len(campaign.mismatches),
        len(campaign.outcomes), "ok" if campaign.ok else "FAIL")]
    for outcome in campaign.mismatches:
        lines.append("  MISMATCH {}: expected {}, got {} "
                     "({} injections, {} violations) {}".format(
                         outcome.name, outcome.expect, outcome.outcome,
                         outcome.injections, outcome.violations,
                         outcome.first_violation))
    return lines


# -- the subcommand ---------------------------------------------------------------


@dataclass
class SoakResult:
    """What one ``faults`` invocation ran: one campaign per seed."""

    campaigns: list
    #: the runner's RunStats: wall times, so not part of the result's value
    par: object = field(default=None, compare=False)

    @property
    def ok(self):
        return all(campaign.ok for campaign in self.campaigns)


def result(args):
    """One campaign at seed 0, or ``--seeds N`` drawn from ``--entropy``."""
    seeds = [0] if args.seeds is None else soak_seeds(args.seeds,
                                                       args.entropy)
    campaigns, runner = run_faults_parallel(
        seeds, jobs=args.jobs,
        cache=ResultCache(args.cache) if args.cache else None)
    return SoakResult(campaigns, par=runner.stats)


def render(result):
    """A table for one campaign; a summary per campaign for a soak."""
    if len(result.campaigns) != 1:
        return "".join(line + "\n" for campaign in result.campaigns
                       for line in campaign_summary_lines(campaign))
    campaign, = result.campaigns
    lines = [format_table(
        ["scenario", "workload", "injections", "violations", "outcome"],
        [[o.name, o.workload, str(o.injections), str(o.violations),
          o.outcome + ("" if o.matches else " (MISMATCH!)")]
         for o in campaign.outcomes],
        title="Fault campaign — seed {}".format(campaign.seed),
    )]
    lines += ["  {}: first violation {}".format(o.name, o.first_violation)
              for o in campaign.outcomes if o.first_violation]
    lines.append("campaign {}: {}/{} scenarios matched expectations".format(
        "ok" if campaign.ok else "FAILED",
        len(campaign.outcomes) - len(campaign.mismatches),
        len(campaign.outcomes)))
    return "\n".join(lines) + "\n"
