"""Trace fingerprinting for bit-identity (differential) testing.

``fingerprint`` folds everything observable about a finished run — rail
step traces, scheduler/governor event logs, task end states, observation
windows — into one hex digest.  Two runs are behaviourally identical iff
their fingerprints match, which is how the differential tests enforce the
fault layer's off-by-default promise.
"""

import hashlib

from repro.core.manager import PsboxManager


def _put(h, *parts):
    h.update(("|".join(str(p) for p in parts) + "\n").encode())


def fingerprint(platform, kernel=None):
    """A sha256 digest of the run's observable behaviour."""
    h = hashlib.sha256()
    _put(h, "now", platform.sim.now)
    for name in sorted(platform.rails):
        trace = platform.rails[name].trace
        # StepTrace keeps exact change points; hashing them captures the
        # full power history bit for bit.
        _put(h, "rail", name, tuple(trace._times), tuple(trace._values))
    if kernel is None:
        return h.hexdigest()

    for log in kernel.logs():
        for t, kind, payload in log:
            # "seq" labels are left out: they number each device's units
            # in creation order, which record order already captures, and
            # the committed digests were taken without them.
            _put(h, "ev", log.name, t, kind,
                 sorted(item for item in payload.items() if item[0] != "seq"))

    for task in kernel.tasks:
        _put(h, "task", task.id, task.name, task.state, task.finished_at,
             repr(task.member_vruntime))

    manager = getattr(kernel, "psbox_manager", None)
    if manager is not None:
        for box in manager.sandboxes:
            for comp in box.components:
                if comp in PsboxManager.DIRECT_COMPONENTS:
                    continue
                _put(h, "win", box.app.id, comp,
                     tuple(box.vmeter.windows(comp, 0, platform.sim.now)))
    return h.hexdigest()
