"""psbox — the power sandbox, this paper's contribution.

A :class:`PowerSandbox` encloses one app and exposes a *virtual power
meter*: timestamped power of the app running in its vertical slice of the
stack, insulated from concurrent apps.  The kernel-side pieces live in
:class:`PsboxManager` (balloon window bookkeeping and power-state context
switching); the enforcement mechanisms live inside the kernel schedulers
(``repro.kernel.smp`` for spatial balloons, ``repro.kernel.balloon`` for
the temporal balloons of every accelerator and NIC).

Typical use (Listing 1 of the paper, pythonically)::

    box = PowerSandbox(kernel, app, components=("cpu",))   # psbox_create
    with box:                                              # enter/leave
        ...                                                # run, adapt
        joules = box.read()                                # psbox_read
        times, watts = box.sample(t0, t1)                  # psbox_sample
"""

from repro.core.activations import UserLevelCoscheduler
from repro.core.events import (
    MonotonicIncrease,
    PowerEventMonitor,
    SpikeDetected,
    ThresholdAbove,
)
from repro.core.manager import PsboxManager
from repro.core.psbox import PowerSandbox, PsboxError
from repro.core.vmeter import VirtualPowerMeter
from repro.core.vstate import SnapshotContextHolder

__all__ = [
    "MonotonicIncrease",
    "PowerEventMonitor",
    "PowerSandbox",
    "PsboxError",
    "PsboxManager",
    "SnapshotContextHolder",
    "SpikeDetected",
    "ThresholdAbove",
    "UserLevelCoscheduler",
    "VirtualPowerMeter",
]
