"""Fair accelerator command scheduling with temporal balloons.

The baseline scheduler is CFS-in-spirit, as the paper built for SGX544 and
C66x: per-app virtual device runtime; the pending command of the app with
the minimal virtual runtime dispatches first, and multiple apps' commands
may overlap on the hardware (work conserving).  The balloon phases live in
:mod:`repro.kernel.balloon`; this module adds the accelerator's billing:

* outside a window, each command bills its actual device occupancy (the
  command's device-share integral) at completion;
* the unutilized slots while others drain are billed to the sandboxed app
  as its window opens;
* flush, serve and drain-psbox bill the whole device to the sandboxed app.
"""

from repro.hw.accel import Command
from repro.kernel.balloon import SERVE, BalloonScheduler


class AccelScheduler(BalloonScheduler):
    """Driver-level command scheduler for one accelerator."""

    def __init__(self, kernel, engine, name, state_holder=None,
                 draining_enabled=True, yield_quantum=8_000_000):
        super().__init__(kernel, engine, name, state_holder,
                         draining_enabled, yield_quantum)
        self._window_billed_to = None
        self._drain_idle_ns = 0.0
        self._drain_last_t = None
        self.obs_names["submitted"] = ("counter",
                                       engine.name + ".submitted")

    def submit(self, app, kind, cycles, power_w, on_complete=None):
        """Enqueue one command on behalf of ``app``."""
        # seq goes positionally: a keyword argument to a class call costs
        # a kwargs dict per command
        command = self._enqueue(
            app, Command(app.id, kind, cycles, power_w,
                         next(self.device.unit_seq)),
            on_complete)
        obs = self.sim.obs
        if obs is not None:
            obs.instruments[self]["submitted"].value += 1
        self._pump()
        return command

    def _start(self, q, command):
        if self.state == SERVE:
            command.billed_by_window = True
        self.device.dispatch(command)

    def _on_complete(self, command):
        if not command.billed_by_window:
            # Fair billing by actual device occupancy.  Commands dispatched
            # inside a psbox window are covered by the full-window bill.
            q = self.queues.get(command.app_id)
            if q is not None:
                q.vruntime += command.occupancy_ns / q.app.weight

    def _begin_drain(self):
        self._drain_last_t = self.sim.now
        self._drain_idle_ns = 0.0

    def _drain_tick(self):
        """Accumulate idle device slots during drain (billed to the psbox)."""
        now = self.sim.now
        if self._drain_last_t is None:
            return
        idle_fraction = (
            self.device.parallelism - self.device.inflight_count
        ) / self.device.parallelism
        self._drain_idle_ns += idle_fraction * (now - self._drain_last_t)
        self._drain_last_t = now

    def _bill_serve(self, q):
        """Accrue the full-device window bill up to now (phases 2-4)."""
        now = self.sim.now
        if self._window_billed_to is not None:
            q.vruntime += (now - self._window_billed_to) / q.app.weight
            self._window_billed_to = now

    def _bill_open(self, q):
        self._drain_tick()
        q.vruntime += self._drain_idle_ns / q.app.weight
        self._drain_last_t = None
        self._window_billed_to = self.sim.now

    def _bill_close(self, q):
        self._bill_serve(q)
        self._window_billed_to = None
        return ()
