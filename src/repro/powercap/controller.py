"""The power-cap daemon: a periodic closed-loop controller.

Every tick (a ``sim.Process``), the daemon reads each bound app's metered
power through :meth:`PsboxManager.read_power`, estimates demand, asks the
budget tree for grants, and drives each leaf's throttle level with a PI
controller:

* the proportional term reacts to the current overshoot;
* the integrator accumulates persistent overshoot (and unwinds on
  undershoot), which is what holds a steady throttle depth at zero error;
* hysteresis — a quantized level plus an error deadband — keeps actuators
  from flapping between adjacent levels on metering ripple.

Unmanaged draw (idle floors of unbound components, world activity) is
charged against the root cap each tick, so the *aggregate* rail power is
regulated to the cap, not just the sum of the managed apps.
"""

from dataclasses import dataclass

from repro.core.manager import PsboxManager
from repro.sim.clock import from_msec
from repro.sim.trace import EventTrace

#: one decision record: per leaf its measured watts, grant, action and
#: level; for the root its aggregate watts, cap (None when uncapped),
#: ``"aggregate"`` and 0.0
_DECISION = ("decision", "node", "measured_w", "budget_w", "action", "level")


@dataclass
class LeafBinding:
    """Wires one budget-tree leaf to an app's psbox and its actuators."""

    node: str
    psbox: object
    actuators: tuple = ()

    def __post_init__(self):
        self.actuators = tuple(self.actuators)


@dataclass
class _LeafState:
    level: float = 0.0       # throttle level currently applied [0, 1]
    integral: float = 0.0    # PI integrator (already in level units)
    measured_w: float = 0.0
    grant_w: float = 0.0


@dataclass
class ControllerConfig:
    """Gains and shaping knobs of the PI loop."""

    period: int = from_msec(50)
    kp: float = 0.8              # proportional gain on normalized error
    ki: float = 4.0              # integral gain, 1/seconds
    ki_root: float = 1.0         # aggregate trim integral gain, 1/seconds
    levels: int = 16             # throttle quantization steps (hysteresis)
    deadband_w: float = 0.02     # ignore |error| below this when throttling up
    demand_headroom: float = 0.25  # demand estimate margin above measured
    throttle_strength: float = 0.8  # assumed power cut at full throttle
    floor_w: float = 0.05        # normalization floor for tiny grants


class PowerCapController:
    """Hierarchical multi-tenant power-budget enforcement daemon.

    ``log`` keeps every decision for the boot's life, the per-tick
    record of cap compliance: one ``decision`` record per leaf, then one
    for the root, each number rounded to 6 places.
    """

    def __init__(self, kernel, tree, bindings, config=None):
        self.kernel = kernel
        self.sim = kernel.sim
        self.tree = tree
        self.bindings = list(bindings)
        self.config = config or ControllerConfig()
        self.log = EventTrace("powercap")
        self.manager = PsboxManager.for_kernel(kernel)
        for binding in self.bindings:
            leaf = tree.node(binding.node)
            if not leaf.is_leaf:
                raise ValueError(
                    "binding target {!r} is not a leaf".format(binding.node)
                )
        self._states = {b.node: _LeafState() for b in self.bindings}
        # the metrics and series a session binds (``obs.instruments[self]``),
        # named once per daemon and leaf
        names = self.obs_names = {
            "ticks": ("counter", "powercap.ticks"),
            "aggregate_w": ("gauge", "powercap.aggregate_w"),
            "aggregate_series": ("series", "powercap.aggregate_w", {}),
            "cap_series": ("series", "powercap.cap_w", {}),
            "compliance_series": ("series", "powercap.compliance_err", {}),
        }
        for action in ("throttle", "relax"):
            names[action] = ("counter", "powercap.actions." + action)
        for node in self._states:
            names["level", node] = ("gauge", "powercap.{}.level".format(node))
            names["grant_w", node] = ("gauge",
                                      "powercap.{}.grant_w".format(node))
            names["measured_w", node] = (
                "histogram", "powercap.{}.measured_w".format(node))
            for series in ("leaf_level", "leaf_grant_w", "leaf_measured_w"):
                names[series, node] = ("series", "powercap." + series,
                                       {"leaf": node})
        self._trim_w = 0.0       # outer integrator on the aggregate error
        self._proc = None
        self.ticks = 0
        # Backref so readers of the session (events export, flight dumps)
        # find this kernel's decision log: Obs.powercap_log.
        kernel.powercap = self

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self):
        return self._proc is not None and not self._proc.finished

    def start(self):
        """Start the periodic control loop; returns self."""
        if self._proc is None or self._proc.finished:
            self._proc = self.sim.spawn(self._run(), name="powercapd")
        return self

    def stop(self):
        """Stop the loop and release every actuator (no residue)."""
        if self._proc is not None and not self._proc.finished:
            self._proc.kill()
        self._proc = None
        for binding in self.bindings:
            for actuator in binding.actuators:
                actuator.release()
        for state in self._states.values():
            state.level = 0.0
            state.integral = 0.0
        self._trim_w = 0.0

    def shutdown(self):
        """Drop the kernel and budget-tree back-references (boot ended).

        The simulator has already killed the loop; unlike :meth:`stop`,
        no actuator is touched, so the run's last state stays readable.
        """
        self.kernel = None
        for node in self.tree.root.walk():
            node.parent = None

    def _run(self):
        last = self.sim.now
        while True:
            yield self.config.period
            now = self.sim.now
            self._tick(last, now)
            last = now

    # -- readout -----------------------------------------------------------------

    def aggregate_power(self, t0, t1):
        """True platform draw: mean of every rail over [t0, t1)."""
        if t1 <= t0:
            return 0.0
        return sum(
            rail.mean_power(t0, t1)
            for rail in self.kernel.platform.rails.values()
        )

    def leaf_state(self, node):
        """The controller's last decision state for one leaf (read-only)."""
        state = self._states[node]
        return {
            "level": state.level,
            "measured_w": state.measured_w,
            "grant_w": state.grant_w,
        }

    # -- the control law -----------------------------------------------------------

    def _tick(self, t0, t1):
        if t1 <= t0:
            return
        self.ticks += 1
        cfg = self.config
        dt_s = (t1 - t0) / 1e9
        obs = self.sim.obs
        tick_span = None
        if obs is not None:
            instruments = obs.instruments[self]
            tracer = instruments.tracer
            if tracer is not None:
                tick_span = tracer.begin(
                    "powercap.tick", cat="powercap", track="powercap",
                    tick=self.ticks)
            instruments["ticks"].value += 1

        measured = {}
        demands = {}
        plan = self.sim.faults
        for binding in self.bindings:
            state = self._states[binding.node]
            watts = self.manager.read_power(binding.psbox, t0, t1)
            if plan is not None and plan.corrupts("powercap.telemetry"):
                # Stale telemetry: the meter path did not deliver a fresh
                # reading this tick, so the daemon reuses the previous one.
                watts = state.measured_w
            measured[binding.node] = watts
            # Demand estimate: what the app would draw unthrottled.  The
            # measured power of a throttled app understates it by roughly
            # the actuators' attenuation, so invert that model (a leaf at
            # full throttle keeps ~(1 - throttle_strength) of its draw) and
            # add a fixed headroom — grants then track above measurement
            # and release cleanly when the tree has slack.
            attainable = max(1.0 - cfg.throttle_strength * state.level, 0.1)
            demands[binding.node] = (
                watts * (1.0 + cfg.demand_headroom) / attainable
            )

        aggregate = self.aggregate_power(t0, t1)
        root = self.tree.root
        if root.cap_w is not None:
            # Whatever the managed apps do not account for still drains the
            # cap: idle floors of unbound components, unmanaged world
            # activity, and double-counted idle fill.
            overhead = max(0.0, aggregate - sum(measured.values()))
            # Outer loop: the per-leaf model errors (demand estimates,
            # quantized levels) leave a residual bias between the true
            # aggregate and the cap; a slow integrator trims it out.  It
            # saturates harmlessly when the apps simply cannot draw more.
            self._trim_w = _clip(
                self._trim_w + cfg.ki_root * (root.cap_w - aggregate) * dt_s,
                -0.5 * root.cap_w, 0.5 * root.cap_w,
            )
            grants = self.tree.allocate(
                demands,
                available=max(0.0, root.cap_w - overhead + self._trim_w),
            )
        else:
            grants = self.tree.allocate(demands)

        for binding in self.bindings:
            state = self._states[binding.node]
            grant = grants[binding.node]
            error = measured[binding.node] - grant
            reference = max(grant, cfg.floor_w)
            normalized = error / reference
            state.integral = _clip(
                state.integral + cfg.ki * normalized * dt_s, 0.0, 1.0
            )
            raw = _clip(cfg.kp * normalized + state.integral, 0.0, 1.0)
            level = round(raw * cfg.levels) / cfg.levels
            action = "hold"
            if level != state.level and (
                level < state.level or abs(error) > cfg.deadband_w
            ):
                for actuator in binding.actuators:
                    actuator.apply(level)
                action = "throttle" if level > state.level else "relax"
                state.level = level
            state.measured_w = measured[binding.node]
            state.grant_w = grant
            self.log.add((t1, _DECISION, binding.node,
                          round(float(measured[binding.node]), 6),
                          round(float(grant), 6), action,
                          round(float(state.level), 6)))
            if obs is not None:
                if action != "hold":
                    instruments[action].value += 1
                node = binding.node
                instruments["level", node].set(state.level)
                instruments["grant_w", node].set(grant)
                instruments["measured_w", node].observe(measured[node], dt_s)
                timeline = obs.timeline
                if timeline is not None:
                    timeline.add(instruments["leaf_level", node], t1,
                                 state.level)
                    timeline.add(instruments["leaf_grant_w", node], t1, grant)
                    timeline.add(instruments["leaf_measured_w", node], t1,
                                 measured[node])
        self.log.add((t1, _DECISION, root.name,
                      round(float(aggregate), 6),
                      None if root.cap_w is None
                      else round(float(root.cap_w), 6),
                      "aggregate", 0.0))
        if obs is not None:
            instruments["aggregate_w"].set(aggregate)
            if tracer is not None:
                tracer.sample("powercap.aggregate_w", track="powercap",
                              watts=round(aggregate, 4))
            timeline = obs.timeline
            if timeline is not None:
                timeline.add(instruments["aggregate_series"], t1, aggregate)
                if root.cap_w is not None:
                    timeline.add(instruments["cap_series"], t1, root.cap_w)
                    timeline.add(
                        instruments["compliance_series"], t1,
                        (aggregate - root.cap_w) / root.cap_w
                        if root.cap_w else 0.0)
            if tracer is not None:
                tracer.end(tick_span, aggregate_w=round(aggregate, 4),
                           cap_w=root.cap_w)


def _clip(value, lo, hi):
    return lo if value < lo else hi if value > hi else value
