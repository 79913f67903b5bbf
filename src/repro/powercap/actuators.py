"""Enforcement backends: how a throttle level becomes less power.

Each actuator maps the controller's throttle level ``u`` in [0, 1] onto one
existing kernel mechanism:

* :class:`GovernorClampActuator` — clamps the max OPP of a governor's
  contexts (``kernel/governor.py``), lowering the frequency ceiling an app's
  psbox context (or the world) may reach;
* :class:`CfsBandwidthActuator` — duty-cycles an app's runnable windows
  through the SMP scheduler (``kernel/smp.py``), shrinking its CPU share;
* :class:`BalloonAdmissionActuator` — duty-cycles an app's admission into
  a temporal-balloon scheduler (``kernel/balloon.py``, any accelerator or
  NIC), bounding its device occupancy.

``apply(0.0)`` always restores the untouched mechanism, so a stopped daemon
leaves no residue.  :func:`component_actuators` is the one wiring of a
single-component psbox to its actuators.
"""

from repro.sim.clock import from_msec


class Actuator:
    """Interface: ``apply(level)`` with level in [0, 1]; ``release()``."""

    def apply(self, level):
        raise NotImplementedError

    def release(self):
        self.apply(0.0)


def _check_level(level):
    if not 0.0 <= level <= 1.0:
        raise ValueError("throttle level must be within [0, 1]")
    return float(level)


class GovernorClampActuator(Actuator):
    """Max-OPP clamp on one or more governor contexts.

    Level 0 removes the clamp; level 1 pins the contexts to ``min_index``.
    Intermediate levels interpolate over the OPP table.
    """

    def __init__(self, governor, ctx_keys, min_index=0):
        if not ctx_keys:
            raise ValueError("need at least one governor context to clamp")
        if not 0 <= min_index <= governor.domain.max_index:
            raise ValueError("min_index outside the domain's OPP table")
        self.governor = governor
        self.ctx_keys = tuple(ctx_keys)
        self.min_index = min_index

    def apply(self, level):
        level = _check_level(level)
        if level <= 0.0:
            for key in self.ctx_keys:
                self.governor.clear_clamp(key)
            return
        top = self.governor.domain.max_index
        max_index = top - int(round(level * (top - self.min_index)))
        for key in self.ctx_keys:
            self.governor.set_clamp(key, max_index)


class CfsBandwidthActuator(Actuator):
    """Duty-cycled CPU bandwidth through the SMP scheduler.

    Level 0 is full bandwidth; level 1 throttles down to ``floor`` of every
    period (never zero — a starved app could not even drain its balloons).
    """

    def __init__(self, smp, app, floor=0.2, period=from_msec(10)):
        if not 0.0 < floor < 1.0:
            raise ValueError("bandwidth floor must be within (0, 1)")
        self.smp = smp
        self.app = app
        self.floor = floor
        self.period = period

    def apply(self, level):
        level = _check_level(level)
        fraction = 1.0 - (1.0 - self.floor) * level
        if fraction >= 1.0:
            self.smp.clear_cpu_bandwidth(self.app)
        else:
            self.smp.set_cpu_bandwidth(self.app, fraction, period=self.period)


class BalloonAdmissionActuator(Actuator):
    """Admission duty cycle on one temporal-balloon scheduler.

    Works on any ``BalloonScheduler`` (``kernel.balloon_scheds``), through
    its ``admission`` :class:`AdmissionGate`.
    """

    def __init__(self, sched, app, floor=0.15, period=from_msec(40)):
        if not 0.0 < floor < 1.0:
            raise ValueError("admission floor must be within (0, 1)")
        self.sched = sched
        self.app = app
        self.floor = floor
        self.period = period

    def apply(self, level):
        level = _check_level(level)
        fraction = 1.0 - (1.0 - self.floor) * level
        if fraction >= 1.0:
            self.sched.admission.clear(self.app.id)
        else:
            self.sched.admission.set(self.app.id, fraction, self.period)


def component_actuators(kernel, app, box):
    """The actuators that throttle ``app`` on its psbox's one component.

    CPU: the box context's OPP clamp, then CFS bandwidth; GPU: the OPP
    clamp, then admission in 40 ms cycles; WiFi: admission in 60 ms cycles.
    """
    (component,) = box.components
    if component == "cpu":
        return (GovernorClampActuator(kernel.cpu_governor, (box.ctx_key,)),
                CfsBandwidthActuator(kernel.smp, app))
    if component == "gpu":
        return (GovernorClampActuator(kernel.gpu_governor, (box.ctx_key,)),
                BalloonAdmissionActuator(kernel.gpu_sched, app,
                                         period=from_msec(40)))
    if component == "wifi":
        return (BalloonAdmissionActuator(kernel.net_sched, app,
                                         period=from_msec(60)),)
    raise ValueError("no actuators for component {!r}".format(component))
