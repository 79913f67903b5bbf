"""Kernel-side psbox management.

One manager per kernel.  It owns the registry of sandboxes, wires balloon
window events from the schedulers into each sandbox's virtual power meter,
and switches power-state contexts at CPU balloon boundaries (the temporal
balloon schedulers in ``kernel.balloon_scheds`` switch their own contexts,
since those boundaries are theirs to define).
"""

from repro.hw import platform as hwplat


class PsboxManager:
    """Registry + event hub for all power sandboxes of one kernel."""

    @classmethod
    def for_kernel(cls, kernel):
        manager = getattr(kernel, "psbox_manager", None)
        if manager is None:
            manager = cls(kernel)
            kernel.psbox_manager = manager
        return manager

    def __init__(self, kernel):
        self.kernel = kernel
        self.platform = kernel.platform
        self.sandboxes = []
        # component -> the psbox currently *entered* on it (accel/NIC);
        # CPU sandboxes are tracked per app since several may coexist.
        self.occupants = {}
        self.cpu_occupants = {}
        if kernel.smp is not None:
            kernel.smp.balloon_in_hooks.append(self._cpu_balloon_in)
            kernel.smp.balloon_out_hooks.append(self._cpu_balloon_out)
        for comp, sched in kernel.balloon_scheds.items():
            sched.balloon_in_hooks.append(self._device_hook(comp, True))
            sched.balloon_out_hooks.append(self._device_hook(comp, False))

    def shutdown(self):
        """Drop the kernel back-references of the manager and its boxes."""
        self.kernel = None
        for psbox in self.sandboxes:
            psbox.kernel = psbox.manager = None

    # -- registration / enter / leave ------------------------------------------

    def register(self, psbox):
        self.sandboxes.append(psbox)

    #: components observed without any kernel mechanism: display power
    #: decomposes exactly per app, GPS operating power is shareable (§7).
    DIRECT_COMPONENTS = (hwplat.DISPLAY, hwplat.GPS)

    def enter(self, psbox):
        for comp in psbox.components:
            if comp in self.DIRECT_COMPONENTS:
                continue
            occupant = self.occupants.get(comp)
            if occupant is not None and occupant is not psbox \
                    and comp != hwplat.CPU:
                # Accelerator and NIC schedulers serve one sandbox at a
                # time; the CPU scheduler serializes any number of
                # sandboxes through alternating balloons.
                raise RuntimeError(
                    "component {!r} already sandboxed by app {}".format(
                        comp, occupant.app.id
                    )
                )
        for comp in psbox.components:
            if comp in self.DIRECT_COMPONENTS:
                continue
            if comp == hwplat.CPU:
                self.cpu_occupants[psbox.app.id] = psbox
                self.kernel.smp.set_sandboxed(psbox.app, True)
                continue
            self.occupants[comp] = psbox
            self.kernel.balloon_scheds[comp].set_psbox(psbox.app)

    def leave(self, psbox):
        for comp in psbox.components:
            if comp in self.DIRECT_COMPONENTS:
                continue
            if comp == hwplat.CPU:
                if self.cpu_occupants.get(psbox.app.id) is psbox:
                    # Ending the balloon fires the balloon-out hook, which
                    # needs the registration still in place to close the
                    # observation window — unregister afterwards.
                    self.kernel.smp.set_sandboxed(psbox.app, False)
                    del self.cpu_occupants[psbox.app.id]
                continue
            if self.occupants.get(comp) is not psbox:
                continue
            self.kernel.balloon_scheds[comp].set_psbox(None)
            del self.occupants[comp]

    # -- kernel-side readout -------------------------------------------------------

    def read_power(self, psbox, t0, t1):
        """Mean metered power of ``psbox`` in watts over [t0, t1).

        Kernel-side (privileged) readout for daemons like ``repro.powercap``:
        unlike :meth:`PowerSandbox.read` it does not require the sandbox to
        be entered, and it shields callers from ``core/vmeter.py`` internals.
        """
        if psbox not in self.sandboxes:
            raise ValueError(
                "psbox of app {} is not registered with this kernel".format(
                    psbox.app.id
                )
            )
        if t1 <= t0:
            return 0.0
        return psbox.vmeter.energy(t0, t1) / ((t1 - t0) / 1e9)

    def boxes_bound_to(self, component):
        """Registered sandboxes bound to ``component`` (entered or not)."""
        return [box for box in self.sandboxes if component in box.components]

    # -- balloon window plumbing ---------------------------------------------------

    def _psbox_of(self, app, component):
        if component == hwplat.CPU:
            return self.cpu_occupants.get(app.id)
        occupant = self.occupants.get(component)
        if occupant is not None and occupant.app is app:
            return occupant
        return None

    def _cpu_balloon_in(self, app, t):
        psbox = self._psbox_of(app, hwplat.CPU)
        if psbox is None:
            return
        if self.kernel.cpu_governor is not None \
                and self.kernel.config.vstate_enabled:
            self.kernel.cpu_governor.switch_context(psbox.ctx_key)
        psbox.vmeter.open_window(hwplat.CPU, t)

    def _cpu_balloon_out(self, app, t):
        psbox = self._psbox_of(app, hwplat.CPU)
        if psbox is None:
            return
        psbox.vmeter.close_window(hwplat.CPU, t)
        if self.kernel.cpu_governor is not None \
                and self.kernel.config.vstate_enabled:
            self.kernel.cpu_governor.switch_context("world")

    def _device_hook(self, component, opening):
        def hook(app, t):
            psbox = self._psbox_of(app, component)
            if psbox is None:
                return
            if opening:
                psbox.vmeter.open_window(component, t)
            else:
                psbox.vmeter.close_window(component, t)
        return hook
