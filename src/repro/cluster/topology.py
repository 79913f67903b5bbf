"""Cluster topology: node specs and the runtime node.

A :class:`NodeSpec` is pure data (JSON-able — calibration cells ship it to
``repro.par`` workers); a :class:`Node` is the running thing: one full
:class:`~repro.hw.platform.Platform` board booted from the spec, the
placed workload instances as live apps in entered psboxes, and — unless
booted bare for calibration — a per-node budget tree enforced by a
:class:`~repro.powercap.PowerCapController`, each leaf wired by
:func:`~repro.powercap.component_actuators`.  The cluster's global loop
advances a node (:meth:`Node.advance`), reads its draw from the board
(:meth:`Platform.aggregate_power`) and its demand (:meth:`Node.demand_w`),
and installs its cap (:meth:`Node.set_cap`); everything below those calls
is the single-board machinery, unchanged.
"""

from dataclasses import dataclass, field

from repro.cluster.workloads import service_app
from repro.hw.platform import Platform
from repro.kernel.kernel import Kernel, KernelConfig
from repro.obs import runtime as obs_runtime
from repro.powercap import (
    BudgetTree,
    LeafBinding,
    PowerCapController,
    component_actuators,
)
from repro.sim.clock import SEC

#: seconds between a workload's end and its psbox leaving — covers the
#: service loop's final burst draining past its deadline
LEAVE_MARGIN_S = 0.05


@dataclass(frozen=True)
class NodeSpec:
    """One datacenter node: identity, size, and placement capacity."""

    name: str
    weight: float = 1.0
    n_cpu_cores: int = 2
    capacity_w: float = 4.0      # placement headroom prior (uncapped peak)
    components: tuple = ("cpu", "gpu", "wifi")

    def __post_init__(self):
        if self.capacity_w <= 0:
            raise ValueError("node capacity must be positive")
        if self.weight <= 0:
            raise ValueError("node weight must be positive")

    def to_dict(self):
        return {
            "name": self.name, "weight": self.weight,
            "n_cpu_cores": self.n_cpu_cores, "capacity_w": self.capacity_w,
            "components": list(self.components),
        }

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        data["components"] = tuple(data.get("components",
                                            ("cpu", "gpu", "wifi")))
        return cls(**data)


@dataclass
class ClusterTopology:
    """An ordered set of node specs (order is the tie-break everywhere)."""

    nodes: list = field(default_factory=list)

    def __post_init__(self):
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate node names in topology")

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node(self, name):
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError("no node {!r} in topology".format(name))

    @classmethod
    def uniform(cls, n, capacity_w=4.0, n_cpu_cores=2, weight=1.0):
        """``n`` identical nodes named ``node00`` .. ``node{n-1}``."""
        if n < 1:
            raise ValueError("topology needs at least one node")
        return cls([
            NodeSpec(name="node{:02d}".format(i), weight=weight,
                     n_cpu_cores=n_cpu_cores, capacity_w=capacity_w)
            for i in range(n)
        ])

    def total_capacity_w(self):
        return sum(node.capacity_w for node in self.nodes)


def node_seed(base_seed, index):
    """Per-node simulator seed: distinct boards, one campaign seed."""
    return base_seed * 1009 + 101 * (index + 1)


class Node:
    """A booted node: simulator, kernel, placed apps, powercap daemon."""

    def __init__(self, spec, workloads, seed, with_controller=True,
                 controller_config=None, obs_label=None):
        self.spec = spec
        self.name = spec.name
        self.workloads = list(workloads)
        self.platform = Platform.full(seed=seed,
                                      n_cpu_cores=spec.n_cpu_cores)
        self.kernel = Kernel(self.platform, config=KernelConfig())
        # obs_label distinguishes the many sessions one campaign boots per
        # node name (calibration, each allocator's enforcement run).
        obs_runtime.install(self.platform.sim, kernel=self.kernel,
                            label=obs_label or spec.name)
        self.apps = {}
        self.boxes = {}
        sim = self.platform.sim
        for workload in self.workloads:
            if workload.component not in spec.components:
                raise ValueError(
                    "workload {!r} needs {!r} which node {!r} lacks".format(
                        workload.name, workload.component, spec.name))
            app = service_app(self.kernel, workload)
            box = app.create_psbox((workload.component,))
            self.apps[workload.name] = app
            self.boxes[workload.name] = box
            # psboxes follow the instance's lifetime: accelerator and NIC
            # schedulers serve one sandbox at a time, so an instance may
            # only hold its component's box while it actually runs (the
            # placement layer keeps exclusive components overlap-free).
            sim.at(int(workload.start_s * SEC), self._enter_box,
                   workload.name)
            sim.at(int((workload.end_s + LEAVE_MARGIN_S) * SEC),
                   self._leave_box, workload.name)
        self.tree = None
        self.controller = None
        if with_controller:
            self.tree = self._build_tree()
            self.controller = PowerCapController(
                self.kernel, self.tree, self._build_bindings(),
                config=controller_config,
            ).start()

    # -- construction ------------------------------------------------------------

    def _enter_box(self, name):
        self.boxes[name].enter()

    def _leave_box(self, name):
        box = self.boxes[name]
        if box.entered:
            box.leave()

    def _build_tree(self):
        """node root -> tenant -> one leaf per placed instance.

        Tenants are uncapped below the node root (their split falls out of
        weighted water-filling over live demand); the root cap is what the
        global allocator rewrites every epoch via :meth:`set_cap`.
        """
        spec = {"name": self.name, "cap_w": self.spec.capacity_w,
                "children": []}
        by_tenant = {}
        for workload in self.workloads:
            by_tenant.setdefault(workload.tenant, []).append(workload)
        for tenant in sorted(by_tenant):
            members = by_tenant[tenant]
            spec["children"].append({
                "name": "{}/{}".format(self.name, tenant),
                "weight": members[0].weight,
                "children": [{"name": w.name, "weight": w.weight}
                             for w in members],
            })
        return BudgetTree.from_spec(spec)

    def _build_bindings(self):
        return [
            LeafBinding(name, box, actuators=component_actuators(
                self.kernel, self.apps[name], box))
            for name, box in self.boxes.items()
        ]

    # -- the cluster-facing surface ------------------------------------------------

    def shutdown(self):
        """End this node's boot once the cluster has stopped driving it.

        The node's cap loop stops first: the simulator kills the powercap
        daemon where it stands, before any kernel part goes, and no
        actuator is released, so the controller's decision log and every
        kernel log read as the run left them.  Then :meth:`Kernel.shutdown`
        cuts the boot's cycles, and the node is freed by reference
        counting once its owner drops it.  Reads (rails, logs, the
        controller's log and leaf states) still work; advancing does
        not.  A second call does nothing.
        """
        self.kernel.shutdown()

    def advance(self, until_ns):
        """Run this node's simulator up to the epoch boundary."""
        self.platform.sim.run(until=until_ns)

    def set_cap(self, cap_w):
        """Install the global allocator's grant as this node's root cap."""
        if self.tree is None:
            raise RuntimeError("calibration nodes have no budget tree")
        self.tree.root.cap_w = max(0.0, float(cap_w))

    @property
    def cap_w(self):
        return None if self.tree is None else self.tree.root.cap_w

    def demand_w(self, t0, t1):
        """The node's unthrottled-demand estimate for the global loop.

        Each leaf's estimate is the node controller's own
        (:meth:`PowerCapController.leaf_demand_w`), plus whatever
        aggregate draw the managed leaves do not account for (idle floors,
        unmanaged world) — so a fully idle node still demands its floor.
        """
        aggregate = self.platform.aggregate_power(t0, t1)
        controller = self.controller
        if controller is None:
            return aggregate
        managed = 0.0
        demand = 0.0
        for workload in self.workloads:
            state = controller.leaf_state(workload.name)
            managed += state["measured_w"]
            demand += controller.leaf_demand_w(state["measured_w"],
                                               state["level"])
        return demand + max(0.0, aggregate - managed)

    def active_workloads(self, t0_s, t1_s):
        return [w for w in self.workloads if w.overlaps(t0_s, t1_s)]

    def throttle_actions(self):
        """Actuator applications the node's daemon performed so far."""
        if self.controller is None:
            return 0
        return sum(1 for _t, _k, payload in self.controller.log
                   if payload["action"] in ("throttle", "relax"))

    def mean_power_series(self, epoch_ns, horizon_ns):
        """Per-epoch mean aggregate draw — the calibration payload."""
        series = []
        t = 0
        while t < horizon_ns:
            end = min(t + epoch_ns, horizon_ns)
            series.append(round(self.platform.aggregate_power(t, end), 6))
            t = end
        return series

    def __repr__(self):
        return "Node({!r}, {} workloads)".format(self.name,
                                                 len(self.workloads))
