"""A psbox-aware render-service daemon (SurfaceFlinger-shaped).

Clients never touch the GPU: they deposit render requests with the daemon,
which forwards them to the kernel GPU scheduler under its *own* identity —
exactly the structure that defeats a kernel-only psbox.

With ``psbox_aware=True`` the daemon mirrors the kernel's temporal-balloon
protocol at user level for its sandboxed client:

* requests from other clients are held while the sandboxed client's
  requests are in flight, and vice versa (drain -> flush -> serve);
* while the daemon is exclusively executing the sandboxed client's
  requests, it feeds that client's virtual power meter with GPU
  observation windows.

With ``psbox_aware=False`` the daemon multiplexes clients freely — the
ablation showing why kernel psbox alone is not enough on daemon stacks.
"""

from collections import deque

from repro.apps.base import App
from repro.core.vmeter import VirtualPowerMeter
from repro.sim.trace import EventTrace

NORMAL = "normal"
DRAIN_OTHERS = "drain_others"
SERVE = "serve"
DRAIN_CLIENT = "drain_client"

# record shapes of the daemon's log
_SUBMIT = ("submit", "client")
_DRAIN_OTHERS = ("drain_others",)
_FORWARD = ("forward", "client")
_WINDOW_OPEN = ("window_open", "client")
_WINDOW_CLOSE = ("window_close", "client")


class _Client:
    __slots__ = ("app", "pending", "inflight", "meter")

    def __init__(self, app, meter):
        self.app = app
        self.pending = deque()
        self.inflight = 0
        self.meter = meter


class RenderService:
    """User-level GPU request multiplexer with optional psbox awareness."""

    def __init__(self, kernel, name="render_service", psbox_aware=True,
                 max_outstanding=2):
        self.kernel = kernel
        self.sim = kernel.sim
        self.psbox_aware = psbox_aware
        self.max_outstanding = max_outstanding
        # The daemon is an ordinary app to the kernel: all GPU commands it
        # forwards are billed to *it*.
        self.daemon_app = App(kernel, name)
        self.clients = {}
        self.state = NORMAL
        self.sandboxed_client = None
        self.outstanding = 0
        self.log = EventTrace(name)

    # -- client interface ---------------------------------------------------------

    def connect(self, app):
        """Register a client app; returns its insulated virtual meter."""
        if app.id not in self.clients:
            meter = VirtualPowerMeter(self.kernel.platform, ("gpu",),
                                      app_id=app.id)
            self.clients[app.id] = _Client(app, meter)
        return self.clients[app.id].meter

    def submit(self, app, kind, cycles, power_w, on_complete=None):
        """Deposit one render request on behalf of ``app``."""
        client = self.clients.get(app.id)
        if client is None:
            raise KeyError("client {!r} is not connected".format(app.name))
        client.pending.append((kind, cycles, power_w, on_complete))
        self.log.add((self.sim.now, _SUBMIT, app.id))
        self._pump()

    def enter_psbox(self, app):
        """The client's psbox covers the daemon's multiplexing too."""
        if self.sandboxed_client is not None:
            raise RuntimeError("render service already has a sandboxed "
                               "client")
        client = self.clients.get(app.id)
        if client is None:
            raise KeyError("client {!r} is not connected".format(app.name))
        if not self.psbox_aware:
            # The unaware daemon ignores sandbox boundaries entirely.
            self.sandboxed_client = client
            return
        self.sandboxed_client = client
        self._pump()

    def leave_psbox(self, app):
        client = self.sandboxed_client
        if client is None or client.app.id != app.id:
            return
        if self.psbox_aware and self.state in (SERVE, DRAIN_CLIENT):
            self._close_window()
        self.state = NORMAL
        self.sandboxed_client = None
        self._pump()

    # -- multiplexing --------------------------------------------------------------

    def _others_pending(self):
        return any(
            c.pending for c in self.clients.values()
            if c is not self.sandboxed_client
        )

    def _pick(self):
        """Round-robin-ish: the pending client with the fewest in flight."""
        best = None
        for client in self.clients.values():
            if not client.pending:
                continue
            if best is None or client.inflight < best.inflight:
                best = client
        return best

    def _pump(self):
        if not self.psbox_aware or self.sandboxed_client is None:
            self._pump_normal(respect_boundary=False)
            return
        if self.state == NORMAL and self.sandboxed_client.pending:
            self.state = DRAIN_OTHERS
            self.log.add((self.sim.now, _DRAIN_OTHERS))
        if self.state == DRAIN_OTHERS:
            if self.outstanding == 0:
                self._open_window()
            else:
                return
        if self.state == DRAIN_CLIENT:
            if self.outstanding == 0:
                self._close_window()
            else:
                return
        if self.state == SERVE:
            self._pump_serve()
            return
        self._pump_normal(respect_boundary=True)

    def _pump_normal(self, respect_boundary):
        while self.outstanding < self.max_outstanding:
            client = self._pick()
            if client is None:
                return
            if respect_boundary and client is self.sandboxed_client:
                self.state = DRAIN_OTHERS
                self.log.add((self.sim.now, _DRAIN_OTHERS))
                self._pump()
                return
            self._forward(client)

    def _pump_serve(self):
        client = self.sandboxed_client
        if not client.pending and self.outstanding == 0 \
                and self._others_pending():
            self.state = DRAIN_CLIENT
            self._close_window()
            self._pump_normal(respect_boundary=True)
            return
        while self.outstanding < self.max_outstanding and client.pending:
            self._forward(client)

    def _forward(self, client):
        kind, cycles, power_w, user_cb = client.pending.popleft()
        client.inflight += 1
        self.outstanding += 1
        self.log.add((self.sim.now, _FORWARD, client.app.id))

        def on_complete(command):
            client.inflight -= 1
            self.outstanding -= 1
            client.app.note_command_complete("gpu", command)
            if user_cb is not None:
                user_cb(command)
            self._pump()

        self.kernel.gpu_sched.submit(self.daemon_app, kind, cycles, power_w,
                                     on_complete=on_complete)

    # -- window plumbing -------------------------------------------------------------

    def _open_window(self):
        self.state = SERVE
        self.log.add((self.sim.now, _WINDOW_OPEN,
                      self.sandboxed_client.app.id))
        self.sandboxed_client.meter.open_window("gpu", self.sim.now)
        self._pump_serve()

    def _close_window(self):
        self.log.add((self.sim.now, _WINDOW_CLOSE,
                      self.sandboxed_client.app.id))
        self.sandboxed_client.meter.close_window("gpu", self.sim.now)
        self.state = NORMAL
