"""repro.powercap — hierarchical multi-tenant power-budget enforcement.

psbox (the rest of this repository) gives every app a trustworthy view of
its own power; this package closes the loop and *acts* on those readings.
A budget tree (platform -> tenant -> app) carries caps that may
oversubscribe; a periodic daemon compares each leaf's metered power —
read through the psbox virtual meters — against its water-filled grant and
throttles overshooting apps through the kernel's own mechanisms (governor
OPP clamps, CFS bandwidth duty cycles, balloon admission gates).

Nothing here runs unless a :class:`PowerCapController` is created and
started: with the daemon absent, every kernel path is bit-identical to the
plain reproduction.
"""

from repro.powercap.actuators import (
    Actuator,
    BalloonAdmissionActuator,
    CfsBandwidthActuator,
    GovernorClampActuator,
    component_actuators,
)
from repro.powercap.budget import BudgetNode, BudgetTree, waterfill
from repro.powercap.controller import (
    ControllerConfig,
    LeafBinding,
    PowerCapController,
)

__all__ = [
    "Actuator",
    "BalloonAdmissionActuator",
    "BudgetNode",
    "BudgetTree",
    "CfsBandwidthActuator",
    "ControllerConfig",
    "GovernorClampActuator",
    "LeafBinding",
    "PowerCapController",
    "component_actuators",
    "waterfill",
]
