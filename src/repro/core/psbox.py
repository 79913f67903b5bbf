"""The PowerSandbox user API (Listing 1 of the paper)."""

from repro.core.manager import PsboxManager
from repro.core.vmeter import VirtualPowerMeter
from repro.hw import platform as hwplat


class PsboxError(RuntimeError):
    """Raised on illegal psbox use (e.g. observing power while outside)."""


class PowerSandbox:
    """An OS principal enclosing one app's power observation.

    The sandbox is bound at creation to a set of hardware components whose
    rails can be metered separately (``psbox_create(HW_CPU | ...)``).  The
    app may enter and leave freely; power may only be observed while
    entered.  All readings are timestamped against the kernel clock.
    """

    def __init__(self, kernel, app, components=(hwplat.CPU,)):
        components = tuple(components)
        if not components:
            raise ValueError("psbox needs at least one hardware component")
        for comp in components:
            if comp not in kernel.platform.rails:
                raise ValueError(
                    "platform has no separately metered rail {!r}".format(comp)
                )
        self.kernel = kernel
        self.app = app
        self.components = components
        self.vmeter = VirtualPowerMeter(kernel.platform, components,
                                        app_id=app.id)
        self.entered = False
        self.entered_at = None
        self.closed = False
        self.manager = PsboxManager.for_kernel(kernel)
        self.manager.register(self)
        self.ctx_key = "psbox.{}".format(app.id)
        app.psboxes.append(self)

    # -- enter / leave -----------------------------------------------------------

    def enter(self):
        """psbox_enter(): start insulating this app's power observation."""
        if self.closed:
            raise PsboxError("psbox was destroyed; create a new one")
        if self.entered:
            return
        self.manager.enter(self)
        self.entered = True
        self.entered_at = self.kernel.now

    def leave(self):
        """psbox_leave(): resume full-speed, unobserved execution."""
        if not self.entered:
            return
        self.manager.leave(self)
        self.entered = False

    def __enter__(self):
        self.enter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.leave()
        return False

    # -- observation --------------------------------------------------------------

    def _require_entered(self):
        if not self.entered:
            raise PsboxError(
                "app {} may only observe power inside its psbox".format(
                    self.app.name
                )
            )

    def read(self, since=None):
        """psbox_read(): energy in joules accumulated since ``since``
        (default: since entering)."""
        self._require_entered()
        t0 = self.entered_at if since is None else since
        return self.vmeter.energy(t0, self.kernel.now)

    def sample(self, component=None, t0=None, t1=None, dt=None):
        """psbox_sample(): timestamped power samples of one bound component
        (the only one, when the psbox is bound to a single component)."""
        self._require_entered()
        if component is None:
            if len(self.components) != 1:
                raise ValueError("psbox bound to several components; pick one")
            component = self.components[0]
        if component not in self.components:
            raise PsboxError(
                "psbox is not bound to component {!r}".format(component)
            )
        t0 = self.entered_at if t0 is None else t0
        t1 = self.kernel.now if t1 is None else t1
        return self.vmeter.samples(component, t0, t1, dt)

    def energy(self, t0, t1, component=None):
        """Energy over an explicit window (used by analysis code)."""
        self._require_entered()
        return self.vmeter.energy(t0, t1, component=component)

    def collect(self, n_samples, dt=None, component=None, callback=None):
        """Continuous collection of power samples (Listing 1, line 5).

        Fills a buffer with ``n_samples`` timestamped readings taken every
        ``dt`` nanoseconds from now; ``callback(times, watts)`` fires when
        the buffer is full.  Returns the live buffer (list of
        ``(time, watts)``) immediately so callers may also poll it.
        """
        self._require_entered()
        if n_samples < 1:
            raise ValueError("need at least one sample")
        if component is None:
            if len(self.components) != 1:
                raise ValueError("psbox bound to several components; pick one")
            component = self.components[0]
        dt = dt or self.kernel.platform.meter.sample_interval
        buffer = []
        state = {"last": self.kernel.now}

        def take():
            now = self.kernel.now
            if self.entered and now > state["last"]:
                joules = self.vmeter.energy(state["last"], now,
                                            component=component)
                watts = joules / ((now - state["last"]) / 1e9)
                buffer.append((now, watts))
            state["last"] = now
            if len(buffer) < n_samples:
                self.kernel.sim.call_later(dt, take)
            elif callback is not None:
                times = [t for t, _w in buffer]
                values = [w for _t, w in buffer]
                callback(times, values)

        self.kernel.sim.call_later(dt, take)
        return buffer

    def observation_windows(self, component, t0=None, t1=None):
        """The balloon windows this sandbox observed on ``component``.

        Kernel-side readout (no entered requirement): used by invariant
        checking and analysis code to audit window disjointness and
        attribution without reaching into ``core/vmeter.py`` internals.
        """
        t0 = 0 if t0 is None else t0
        t1 = self.kernel.now if t1 is None else t1
        return self.vmeter.windows(component, t0, t1)

    # -- lifecycle ----------------------------------------------------------------

    def close(self):
        """Destroy the sandbox: leave, drop virtualized state, unregister.

        After close() the sandbox cannot be entered again; its saved power
        states (governor contexts, NIC snapshots) are forgotten so a future
        sandbox of the same app starts pristine.
        """
        self.leave()
        kernel = self.kernel
        for governor in (kernel.cpu_governor, kernel.gpu_governor):
            if governor is not None and self.ctx_key in governor.contexts:
                governor.drop_context(self.ctx_key)
        if kernel.net_sched is not None \
                and kernel.net_sched.state_holder is not None:
            kernel.net_sched.drop_context(self.ctx_key)
        if self in self.manager.sandboxes:
            self.manager.sandboxes.remove(self)
        if self in self.app.psboxes:
            self.app.psboxes.remove(self)
        self.closed = True
