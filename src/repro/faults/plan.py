"""Deterministic fault-injection plans.

A :class:`FaultPlan` is the single source of truth for every perturbation a
run may experience.  Components never invent faults; they ask the installed
plan at well-known *sites* ("smp.ipi", "gpu.drain", "governor.opp", ...)
whether something goes wrong *right now*, via one of the typed queries
below.  Three properties make campaigns reproducible and trustworthy:

* **bit-identical off by default** — with no plan installed (``sim.faults``
  is None), or with the plan disabled, or with no spec armed for a site,
  the query is a pure read: no RNG stream is touched and no event is
  scheduled, so the simulation is indistinguishable from one without the
  fault layer at all;
* **seed-reproducible** — every random decision draws from a dedicated
  per-site stream of the simulator's :class:`~repro.sim.rng.RngRegistry`
  (``faults.<site>``), so injected runs replay exactly and the fault RNG
  never perturbs any other stream;
* **auditable** — every actual injection is appended to ``plan.log`` (an
  :class:`~repro.sim.trace.EventTrace`), so a campaign can report exactly
  what it did and prove that a "tolerated" verdict covered real injections.

Known sites and the query each one answers:

========================  =========  =========================================
site                      kind       effect
========================  =========  =========================================
``smp.ipi``               delay      shootdown IPI arrives late
``smp.ipi``               drop       shootdown IPI is lost in transit
``gpu.drain``             hold       drain-phase transition stalls
``dsp.drain``             hold       (same, DSP scheduler)
``net.drain``             hold       (same, WiFi packet scheduler)
``lte.drain``             hold       (same, LTE packet scheduler)
``governor.opp``          drop       OPP write silently ignored (stuck DVFS)
``governor.opp``          hold       OPP write lands late (transition spike)
``governor.restore``      corrupt    context-restore write lost at switch
``meter.sample``          noise      Gaussian noise on returned samples
``meter.sample``          dropout    samples lost, forward-filled
``powercap.telemetry``    corrupt    controller reads last tick's stale power
``task.crash``            crash      driven by TaskCrashInjector
========================  =========  =========================================
"""

from dataclasses import dataclass, field

import numpy as np

from repro.sim.trace import EventTrace

# the shape of an injection record; a site's own fields follow
_INJECT = ("inject", "site", "fault")


@dataclass
class FaultSpec:
    """One parameterized fault at one (site, kind).

    ``prob`` gates each opportunity independently; ``t0``/``t1`` bound the
    active window in sim time; ``limit`` caps the number of injections.
    The remaining fields parameterize specific kinds: ``extra_ns`` +
    ``jitter_ns`` for delays/holds (and the restart delay of crashes),
    ``noise_w`` for meter noise, ``fraction`` for per-sample dropout,
    ``interval_ns`` for the mean gap between crash attempts.
    """

    site: str
    kind: str
    prob: float = 1.0
    extra_ns: int = 0
    jitter_ns: int = 0
    noise_w: float = 0.0
    fraction: float = 0.0
    interval_ns: int = 0
    t0: int = 0
    t1: int = None
    limit: int = None
    count: int = field(default=0, init=False)   # injections so far


class FaultPlan:
    """The set of fault specs installed on one simulator."""

    def __init__(self, sim, name="faults", enabled=True):
        self.sim = sim
        self.name = name
        self.enabled = enabled
        self.specs = {}              # (site, kind) -> FaultSpec
        self.log = EventTrace(name)

    # -- construction ---------------------------------------------------------

    def add(self, site, kind, **params):
        """Register one fault spec; returns it for further tweaking."""
        spec = FaultSpec(site, kind, **params)
        self.specs[(site, kind)] = spec
        return spec

    def install(self):
        """Make this the simulator's active plan; returns self."""
        self.sim.faults = self
        return self

    def uninstall(self):
        if self.sim.faults is self:
            self.sim.faults = None

    # -- bookkeeping ----------------------------------------------------------

    def spec(self, site, kind):
        return self.specs.get((site, kind))

    def injections(self, site=None):
        """Number of injections performed (optionally for one site)."""
        if site is None:
            return len(self.log)
        return len(self.log.times(site=site))

    def rng(self, site):
        """The dedicated RNG stream for one site's decisions."""
        return self.sim.rng.stream("faults." + site)

    # -- arming ---------------------------------------------------------------

    def _armed(self, site, kind):
        """The spec for (site, kind) if it could fire now, else None.

        Pure read: consults only the plan's own state and the clock, so a
        disabled/missing/out-of-window spec leaves the simulation untouched.
        """
        if not self.enabled:
            return None
        spec = self.specs.get((site, kind))
        if spec is None:
            return None
        now = self.sim.now
        if now < spec.t0 or (spec.t1 is not None and now >= spec.t1):
            return None
        if spec.limit is not None and spec.count >= spec.limit:
            return None
        return spec

    def fires(self, site, kind):
        """Roll the dice for one opportunity; the spec if it fires.

        Draws RNG only when the spec is armed (so disabled plans stay
        bit-identical).  Does not log — the typed queries below do, with
        kind-specific payloads.
        """
        spec = self._armed(site, kind)
        if spec is None:
            return None
        if spec.prob < 1.0 and self.rng(site).random() >= spec.prob:
            return None
        spec.count += 1
        return spec

    def _record(self, spec, **payload):
        self.log.add((self.sim.now, _INJECT + tuple(payload), spec.site,
                      spec.kind, *payload.values()))
        obs = self.sim.obs
        if obs is not None:
            obs.tracer.instant("inject." + spec.site, cat="fault",
                               track="faults", kind=spec.kind, **payload)
            obs.metrics.inc("faults.injections")
            obs.metrics.inc("faults.injections." + spec.site)

    def _draw_ns(self, spec):
        extra = spec.extra_ns
        if spec.jitter_ns > 0:
            extra += int(self.rng(spec.site).integers(0, spec.jitter_ns))
        return extra

    # -- typed queries (the injection-site API) --------------------------------

    def delay(self, site, base_ns):
        """``base_ns`` plus any injected extra latency at this site."""
        spec = self.fires(site, "delay")
        if spec is None:
            return base_ns
        extra = self._draw_ns(spec)
        self._record(spec, extra_ns=extra)
        return base_ns + extra

    def drops(self, site):
        """True when this site's message/write is lost right now."""
        spec = self.fires(site, "drop")
        if spec is None:
            return False
        self._record(spec)
        return True

    def hold_ns(self, site):
        """Nanoseconds this site's transition must stall (0 = no fault)."""
        spec = self.fires(site, "hold")
        if spec is None:
            return 0
        hold = self._draw_ns(spec)
        if hold > 0:
            self._record(spec, hold_ns=hold)
        return hold

    def corrupts(self, site):
        """True when this site's state write is corrupted/lost right now."""
        spec = self.fires(site, "corrupt")
        if spec is None:
            return False
        self._record(spec)
        return True

    def sample_noise(self, site, watts):
        """Meter-sample perturbation: additive Gaussian noise (>= 0 W)."""
        if len(watts) == 0:
            return watts
        spec = self.fires(site, "noise")
        if spec is None or spec.noise_w <= 0:
            return watts
        noise = self.rng(site).normal(0.0, spec.noise_w, size=len(watts))
        self._record(spec, n=len(watts))
        return np.maximum(watts + noise, 0.0)

    def sample_dropout(self, site, watts):
        """Meter-sample perturbation: lost samples, forward-filled.

        Samples before the first surviving one read 0 W (the DAQ had
        nothing to repeat yet).
        """
        if len(watts) == 0:
            return watts
        spec = self.fires(site, "dropout")
        if spec is None or spec.fraction <= 0:
            return watts
        lost = self.rng(site).random(len(watts)) < spec.fraction
        if not lost.any():
            return watts
        self._record(spec, n=int(lost.sum()))
        index = np.where(lost, -1, np.arange(len(watts)))
        last_good = np.maximum.accumulate(index)
        return np.where(last_good >= 0,
                        watts[np.clip(last_good, 0, None)], 0.0)
