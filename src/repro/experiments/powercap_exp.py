"""Closed-loop power capping over psbox meters (extension experiment).

Two tenants share the full board under an oversubscribed budget tree:

* tenant A — calib3d on the CPU plus the magic render loop on the GPU,
  both sized to stay busy for the whole run;
* tenant B — bodytrack on the CPU plus an scp bulk transfer on WiFi,
  both sized to finish mid-run and go idle.

Phase one runs the mix uncapped and measures the aggregate draw; phase two
reboots the identical scenario with the powercap daemon enforcing a
platform cap of 70% of that peak.  The run demonstrates the three claims:

1. **compliance** — aggregate rail power settles within a few percent of
   the cap while both tenants contend;
2. **slack redistribution** — once tenant B idles, the water-filling pass
   hands its unused budget to tenant A's leaves (grants rise);
3. **determinism** — the daemon is ordinary simulation machinery, so a
   fixed seed reproduces the telemetry bit for bit.
"""

import json
from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.apps.cpu_apps import bodytrack, calib3d
from repro.apps.gpu_apps import magic
from repro.apps.wifi_apps import scp
from repro.experiments.common import boot
from repro.powercap import (
    BalloonAdmissionActuator,
    BudgetTree,
    CfsBandwidthActuator,
    GovernorClampActuator,
    LeafBinding,
    PowerCapController,
)
from repro.sim.clock import SEC, from_msec


@dataclass
class PowercapResult:
    uncapped_w: float            # aggregate draw without the daemon
    cap_w: float                 # enforced platform cap (70% of uncapped)
    steady_w: float              # aggregate draw in the contended window
    compliance_pct: float        # (steady - cap) / cap * 100
    relaxed_w: float             # aggregate draw after tenant B idles
    grants_contended: dict       # leaf -> mean grant W while B is busy
    grants_relaxed: dict         # leaf -> mean grant W after B idles
    tenant_a_gain_w: float       # A's grant growth from B's freed slack
    tenant_b_idle_w: float       # B's residual measured draw when idle
    throttle_actions: int        # actuator applications over the run
    telemetry_json: str          # exported decision log (determinism checks)


#: windows (in seconds) used by the analysis below
CONTENDED_WINDOW = (2.5, 4.0)
RELAXED_WINDOW = (6.0, 7.5)
HORIZON_S = 8


def _scenario(seed):
    """The mixed CPU+GPU+WiFi two-tenant workload, psboxes entered."""
    platform, kernel = boot(seed=seed)
    a_cpu = calib3d(kernel, name="a.calib3d", iterations=10**6)
    a_gpu = magic(kernel, name="a.magic", frames=10**6)
    b_cpu = bodytrack(kernel, name="b.bodytrack", iterations=420)
    b_net = scp(kernel, name="b.scp", total_bytes=9_000_000)
    boxes = {
        "a.cpu": a_cpu.create_psbox(("cpu",)),
        "a.gpu": a_gpu.create_psbox(("gpu",)),
        "b.cpu": b_cpu.create_psbox(("cpu",)),
        "b.net": b_net.create_psbox(("wifi",)),
    }
    for box in boxes.values():
        box.enter()
    apps = {"a.cpu": a_cpu, "a.gpu": a_gpu, "b.cpu": b_cpu, "b.net": b_net}
    return platform, kernel, apps, boxes


def _aggregate(platform, t0, t1):
    return sum(rail.mean_power(t0, t1) for rail in platform.rails.values())


def build_budget_tree(cap_w, tenant_fraction=0.75):
    """Platform cap with two oversubscribed tenant caps beneath it."""
    return BudgetTree.from_spec({
        "name": "platform", "cap_w": cap_w, "children": [
            {"name": "tenant-a", "cap_w": tenant_fraction * cap_w,
             "children": [{"name": "a.cpu"}, {"name": "a.gpu"}]},
            {"name": "tenant-b", "cap_w": tenant_fraction * cap_w,
             "children": [{"name": "b.cpu"}, {"name": "b.net"}]},
        ],
    })


def build_bindings(kernel, apps, boxes):
    """Wire each leaf to its psbox and component-appropriate actuators."""
    return [
        LeafBinding("a.cpu", boxes["a.cpu"], actuators=(
            GovernorClampActuator(kernel.cpu_governor,
                                  (boxes["a.cpu"].ctx_key,)),
            CfsBandwidthActuator(kernel.smp, apps["a.cpu"]),
        )),
        LeafBinding("a.gpu", boxes["a.gpu"], actuators=(
            GovernorClampActuator(kernel.gpu_governor,
                                  (boxes["a.gpu"].ctx_key,)),
            BalloonAdmissionActuator(kernel.gpu_sched, apps["a.gpu"],
                                     period=from_msec(40)),
        )),
        LeafBinding("b.cpu", boxes["b.cpu"], actuators=(
            GovernorClampActuator(kernel.cpu_governor,
                                  (boxes["b.cpu"].ctx_key,)),
            CfsBandwidthActuator(kernel.smp, apps["b.cpu"]),
        )),
        LeafBinding("b.net", boxes["b.net"], actuators=(
            BalloonAdmissionActuator(kernel.net_sched, apps["b.net"],
                                     period=from_msec(60)),
        )),
    ]


def _mean_grants(log, nodes, t0, t1):
    grants = {}
    for node in nodes:
        entries = log.filter(t0=t0, t1=t1, node=node)
        grants[node] = (
            sum(payload["budget_w"] for _t, _k, payload in entries)
            / len(entries) if entries else 0.0
        )
    return grants


def run_powercap(seed=11, cap_fraction=0.70, horizon_s=HORIZON_S):
    """The full experiment: uncapped peak, then the capped closed loop."""
    lo, hi = (int(t * SEC) for t in CONTENDED_WINDOW)
    relax_lo, relax_hi = (int(t * SEC) for t in RELAXED_WINDOW)

    # Phase 1 — uncapped peak over the contended window.
    platform, kernel, _apps, _boxes = _scenario(seed)
    platform.sim.run(until=horizon_s * SEC)
    uncapped_w = _aggregate(platform, lo, hi)
    kernel.shutdown()

    # Phase 2 — identical scenario under the daemon.
    cap_w = cap_fraction * uncapped_w
    platform, kernel, apps, boxes = _scenario(seed)
    tree = build_budget_tree(cap_w)
    controller = PowerCapController(
        kernel, tree, build_bindings(kernel, apps, boxes)
    ).start()
    platform.sim.run(until=horizon_s * SEC)

    steady_w = _aggregate(platform, lo, hi)
    relaxed_w = _aggregate(platform, relax_lo, relax_hi)
    leaves = ["a.cpu", "a.gpu", "b.cpu", "b.net"]
    log = controller.log
    grants_contended = _mean_grants(log, leaves, lo, hi)
    grants_relaxed = _mean_grants(log, leaves, relax_lo, relax_hi)
    b_idle_entries = log.filter(t0=relax_lo, t1=relax_hi, node="b.cpu")
    tenant_b_idle_w = (
        sum(payload["measured_w"] for _t, _k, payload in b_idle_entries)
        / len(b_idle_entries) if b_idle_entries else 0.0
    )
    throttle_actions = sum(
        1 for _t, _k, payload in log
        if payload["action"] in ("throttle", "relax")
    )
    result = PowercapResult(
        uncapped_w=uncapped_w,
        cap_w=cap_w,
        steady_w=steady_w,
        compliance_pct=(steady_w - cap_w) / cap_w * 100.0,
        relaxed_w=relaxed_w,
        grants_contended=grants_contended,
        grants_relaxed=grants_relaxed,
        tenant_a_gain_w=(
            grants_relaxed["a.cpu"] + grants_relaxed["a.gpu"]
            - grants_contended["a.cpu"] - grants_contended["a.gpu"]
        ),
        tenant_b_idle_w=tenant_b_idle_w,
        throttle_actions=throttle_actions,
        telemetry_json=json.dumps([dict(payload, t=t)
                                   for t, _k, payload in log],
                                  sort_keys=True),
    )
    kernel.shutdown()
    return result


def result(args=None):
    """The ``powercap`` subcommand, at the default 70% cap."""
    return run_powercap()


def render(result):
    return format_table(
        ["quantity", "value"],
        [["uncapped aggregate", "{:.2f} W".format(result.uncapped_w)],
         ["platform cap (70%)", "{:.2f} W".format(result.cap_w)],
         ["steady aggregate", "{:.2f} W".format(result.steady_w)],
         ["cap compliance", "{:+.1f}%".format(result.compliance_pct)],
         ["aggregate after B idles", "{:.2f} W".format(result.relaxed_w)],
         ["tenant A grant gain", "{:+.2f} W".format(result.tenant_a_gain_w)],
         ["throttle/relax actions", str(result.throttle_actions)]],
        title="Power capping — hierarchical budget enforcement",
    ) + "\n" + format_table(
        ["leaf", "grant contended", "grant after B idles"],
        [[leaf, "{:.2f} W".format(result.grants_contended[leaf]),
          "{:.2f} W".format(result.grants_relaxed[leaf])]
         for leaf in sorted(result.grants_contended)],
        title="Per-leaf grants (slack redistribution)",
    ) + "\n"
