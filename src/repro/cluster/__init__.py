"""repro.cluster — a simulated datacenter over the single-board psbox.

The single-board stack (PRs 1–5) gives one node trustworthy per-app power
and a hierarchical powercap daemon.  This package lifts it a level, per
WattsApp and nvPAX: a :class:`ClusterTopology` of N full simulated nodes,
a power-aware :class:`PlacementEngine` that assigns user-scaled workload
instances to nodes by *predicted* draw against headroom (with fallback
spill), and a :class:`Cluster` whose global cap loop closes over node
telemetry every epoch and re-divides the datacenter budget through a
pluggable :class:`GlobalAllocator` — an nvPAX-style water-filling
constrained optimizer and the PR-1 PI law lifted one level, compared
head-to-head by the ``cluster`` experiment.

Nothing here changes single-board behaviour: a node is the existing
``Simulator``/``Kernel``/``PowerCapController`` machinery booted N times.
"""

from repro.cluster.allocators import (
    GlobalAllocator,
    NodeTelemetry,
    PIBaselineAllocator,
    WaterFillingAllocator,
    redistribution_w,
)
from repro.cluster.calibrate import (
    calibrate,
    calibration_items,
    cluster_peak_w,
    run_node_calibration,
)
from repro.cluster.cluster import Cluster, ClusterConfig, ClusterRun
from repro.cluster.placement import (
    Placement,
    PlacementEngine,
    placement_quality,
    placements_by_node,
)
from repro.cluster.predictor import NODE_IDLE_WATTS, PowerPredictor
from repro.cluster.telemetry import ClusterTelemetry
from repro.cluster.topology import ClusterTopology, Node, NodeSpec, node_seed
from repro.cluster.workloads import (
    USERS_PER_INSTANCE,
    Tenant,
    WorkloadSpec,
    diurnal_users,
    generate_diurnal,
    generate_flash_crowd,
    peak_concurrent_users,
    service_app,
    standard_mix,
)

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterRun",
    "ClusterTelemetry",
    "ClusterTopology",
    "GlobalAllocator",
    "NODE_IDLE_WATTS",
    "Node",
    "NodeSpec",
    "NodeTelemetry",
    "PIBaselineAllocator",
    "Placement",
    "PlacementEngine",
    "PowerPredictor",
    "Tenant",
    "USERS_PER_INSTANCE",
    "WaterFillingAllocator",
    "WorkloadSpec",
    "calibrate",
    "calibration_items",
    "cluster_peak_w",
    "diurnal_users",
    "generate_diurnal",
    "generate_flash_crowd",
    "node_seed",
    "peak_concurrent_users",
    "placement_quality",
    "placements_by_node",
    "redistribution_w",
    "run_node_calibration",
    "service_app",
    "standard_mix",
]
