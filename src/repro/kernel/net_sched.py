"""Fair packet scheduling with temporal balloons for a NIC.

The baseline is a byte-fair queueing discipline (fq-style): per-app
buffers, and the pending packet of the app with the fewest sent bytes per
weight goes to the NIC FIFO next.  The balloon phases live in
:mod:`repro.kernel.balloon`, holding packets in per-app buffers across them
(§4.2 "Wireless interfaces"); this module adds what differs for a NIC:

* packets bill their bytes at dispatch;
* draining waits until the NIC FIFO *and* its batched completion
  notifications are quiet — which is why WiFi draining latency can reach
  hundreds of ms, as the paper observes on the WiLink8 — and the part of
  the drain the NIC spends idle is billed to the sandboxed app;
* the packet scheduler inspects the packets buffered because of the balloon
  and bills the sandboxed app the bytes others could have sent meanwhile
  (the lost-opportunity penalty at window close);
* the NIC's operating power state (tx power level, tail timer) is
  virtualized per psbox through ``state_holder``, switched only while no
  packet is on the air.
"""

from repro.hw.nic import Packet
from repro.kernel.balloon import NORMAL, SERVE, BalloonScheduler
from repro.sim.clock import SEC


class PacketScheduler(BalloonScheduler):
    """Driver-level transmit scheduler for one NIC."""

    _SUBMIT = BalloonScheduler._SUBMIT + ("size",)
    _WINDOW_CLOSE = BalloonScheduler._WINDOW_CLOSE + ("penalty",)

    def __init__(self, kernel, nic, state_holder=None, queue_limit=3,
                 draining_enabled=True, yield_quantum=192_000, name="net"):
        # Bytes of credit hysteresis before the balloon yields the NIC; the
        # long WiLink-style drain (completion batching) must amortize.
        super().__init__(kernel, nic, name, state_holder, draining_enabled,
                         yield_quantum)
        self.queue_limit = min(queue_limit, nic.fifo_depth)
        self._held_other_bytes = 0
        self._drain_busy_est_ns = 0
        self._window_bytes = 0
        # power-state changes waiting for the air: contexts to forget, then
        # the latest switch target
        self._pending_drops = []
        self._pending_ctx = None

        nic.space.subscribe(self._on_space)

    def send(self, app, size_bytes, on_complete=None):
        """Deposit one transmit unit into the app's socket buffer."""
        packet = self._enqueue(
            app, Packet(app.id, size_bytes, next(self.device.unit_seq)),
            on_complete, (size_bytes,))
        if self.state != NORMAL and (
            self.psbox_app is None or app.id != self.psbox_app.id
        ):
            self._held_other_bytes += size_bytes
        self._pump()
        return packet

    def _on_space(self, _nic):
        if self._pending_ctx is not None or self._pending_drops:
            self._apply_ctx()
        self._pump()

    def _switch_context(self, key):
        self._pending_ctx = key
        self._apply_ctx()

    def drop_context(self, key):
        """Forget ``key``'s saved NIC state (its psbox is destroyed)."""
        self._pending_drops.append(key)
        self._apply_ctx()

    def _apply_ctx(self):
        """Apply the waiting power-state changes unless a packet is on air.

        The NIC cannot restore its state mid-transmission, yet a window can
        close under the psbox's own last packet (a leave mid-window) or open
        over a foreign one (draining disabled).  The changes then wait for a
        ``space`` signal that finds the transmitter idle.  Drops go first,
        so a context re-created after its drop starts pristine, and only the
        latest switch target matters.
        """
        if self.device._transmitting is not None:
            return
        drops, self._pending_drops = self._pending_drops, []
        for key in drops:
            self.state_holder.drop_context(key)
        if self._pending_ctx is not None:
            key, self._pending_ctx = self._pending_ctx, None
            self.state_holder.switch_context(key)

    def _has_room(self):
        return (self.device.queued_count < self.queue_limit
                and self.device.has_room)

    def _device_idle(self):
        return self.device.queued_count == 0

    def _start(self, q, packet):
        if self.state == SERVE:
            self._window_bytes += packet.size_bytes
        q.vruntime += packet.size_bytes / q.app.weight
        if not self.device.enqueue(packet):
            raise RuntimeError("NIC FIFO overflow despite queue limit")

    def _begin_drain(self):
        nic = self.device
        self._held_other_bytes = sum(
            pkt.size_bytes
            for q in self.queues.values()
            if q.app.id != self.psbox_app.id
            for pkt in q.pending
        )
        # Estimate how much of the drain the NIC will spend actually
        # transmitting; the rest (notification batching etc.) is idle time
        # the balloon causes, billed to the sandboxed app at window open.
        queued_bytes = sum(pkt.size_bytes for pkt in nic._fifo) + (
            nic._transmitting.size_bytes
            if nic._transmitting is not None else 0)
        self._drain_busy_est_ns = int(
            queued_bytes * 8 / nic.rate_bps * 1e9
        ) + nic.queued_count * nic.per_packet_overhead

    def _bill_open(self, q):
        if self._drain_start_t is not None:
            drain = self.sim.now - self._drain_start_t
            idle = max(0, drain - self._drain_busy_est_ns)
            q.vruntime += (idle * self.device.rate_bps / 8 / 1e9) \
                / q.app.weight

    def _bill_close(self, q):
        # Lost-opportunity penalty: the bytes others could have pushed
        # through the NIC during the window, bounded by link capacity.
        duration = self.sim.now - self._window_open_t
        capacity_bytes = self.device.rate_bps * duration / SEC / 8
        # Others could have used at most the capacity the psbox app left on
        # the table during its exclusive window.
        foregone = max(0.0, capacity_bytes - self._window_bytes)
        penalty = min(self._held_other_bytes, foregone)
        q.vruntime += penalty / q.app.weight
        self._held_other_bytes = 0
        self._window_bytes = 0
        return (penalty,)
