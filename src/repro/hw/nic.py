"""WiFi NIC model (TI WiLink8-shaped).

The NIC owns a small transmit FIFO and sends serially.  Three behaviours
matter for the reproduction:

* **Tail energy / power-save state machine** — after the last transmission
  the chip lingers in an active (CAM) state until a tail timeout, then drops
  to PSM.  This is lingering power state that psbox must virtualize.
* **Completion notification batching** — the firmware reports completions in
  batches (or after a flush timeout).  The paper attributes its long WiFi
  draining latencies (§6.2, hundreds of ms) to exactly this, so we model it.
* **Transmit power levels** — an operating state the driver controls and
  psbox virtualizes per sandbox.
"""

import itertools

from repro.sim.clock import SEC, from_msec, from_usec
from repro.sim.process import Signal
from repro.sim.trace import EventTrace, StepTrace

PSM = "psm"
CAM = "cam"
TX = "tx"
RX = "rx"

# record shapes of the ``<name>.packets`` log
_RX_START = ("rx_start", "app", "seq", "size")
_RX_END = ("rx_end", "app", "seq", "size")
_TX_START = ("tx_start", "app", "seq", "size")
_TX_END = ("tx_end", "app", "seq", "size")


class Packet:
    """One transmit unit (an aggregated MPDU burst in practice).

    ``seq`` labels it in the logs; the driver and the NIC's own receive
    path number packets from the NIC's ``unit_seq``.
    """

    __slots__ = ("app_id", "size_bytes", "seq", "submit_t", "tx_start_t",
                 "tx_end_t", "on_complete")

    def __init__(self, app_id, size_bytes, seq=0, on_complete=None):
        if size_bytes <= 0:
            raise ValueError("packet must have positive size")
        self.app_id = app_id
        self.size_bytes = int(size_bytes)
        self.seq = seq
        self.submit_t = None
        self.tx_start_t = None
        self.tx_end_t = None
        self.on_complete = on_complete

    def __repr__(self):
        return "Packet(app={}, {}B, seq={})".format(
            self.app_id, self.size_bytes, self.seq
        )


class WifiNic:
    """Serial transmitter with FIFO, tail-state machine, batched completions."""

    def __init__(
        self,
        sim,
        rail,
        power_model,
        name="wifi",
        rate_bps=40e6,
        per_packet_overhead=from_usec(400),
        fifo_depth=8,
        tail_timeout=from_msec(60),
        completion_batch=3,
        completion_flush=from_msec(15),
    ):
        self.sim = sim
        self.rail = rail
        self.power_model = power_model
        self.name = name
        self.rate_bps = rate_bps
        self.per_packet_overhead = per_packet_overhead
        self.fifo_depth = fifo_depth
        self.tail_timeout = tail_timeout
        self.completion_batch = completion_batch
        self.completion_flush = completion_flush

        self.tx_level = 0
        self.state = PSM
        self._fifo = []
        self._transmitting = None
        self._receiving = None
        self._rx_queue = []
        self._rx_event = None
        self._tx_event = None
        self._tail_event = None
        self._tail_deadline = None
        self._pending_completions = []
        self._flush_event = None

        self.space = Signal(name + ".space")
        self.log = EventTrace(name + ".packets")
        # numbers this NIC's packets, sent and received: seq labels count
        # per boot
        self.unit_seq = itertools.count()
        self.state_trace = StepTrace(0.0, name=name + ".state")
        self.usage_traces = {}
        self._update_power()

    # -- driver-facing interface ---------------------------------------------

    @property
    def queued_count(self):
        """Packets in the FIFO plus the one on the air."""
        return len(self._fifo) + (1 if self._transmitting is not None else 0)

    @property
    def has_room(self):
        return self.queued_count < self.fifo_depth

    @property
    def is_drained(self):
        """True when nothing is queued, on the air, or awaiting notification."""
        return self.queued_count == 0 and not self._pending_completions

    def queued_apps(self):
        """App ids of all queued/in-flight packets (with duplicates)."""
        apps = [pkt.app_id for pkt in self._fifo]
        if self._transmitting is not None:
            apps.append(self._transmitting.app_id)
        return apps

    def inflight_apps(self):
        """App ids with a transmission queued, on the air, or awaiting a
        completion notification (the set draining must empty)."""
        return self.queued_apps() + [
            pkt.app_id for pkt in self._pending_completions
        ]

    def shutdown(self):
        """Drop the ``space`` subscribers and held packets' callbacks."""
        self.space.clear()
        held = self._fifo + self._rx_queue + self._pending_completions + [
            self._transmitting, self._receiving]
        for packet in held:
            if packet is not None:
                packet.on_complete = None

    def enqueue(self, packet):
        """Accept a packet into the FIFO; returns False when full."""
        if not self.has_room:
            return False
        if packet.submit_t is None:
            packet.submit_t = self.sim.now
        self._fifo.append(packet)
        self._usage_trace(packet.app_id).add(self.sim.now, 1.0)
        self._maybe_start_tx()
        return True

    # -- reception ----------------------------------------------------------------
    #
    # The paper's §4.2 limitation, reproduced: commodity NICs cannot defer
    # receiving packets not destined to the current temporal balloon, so
    # reception happens whenever the air brings it — including inside other
    # apps' psbox windows, where its power pollutes their observations.

    def receive(self, app_id, size_bytes, on_complete=None):
        """A packet arrives over the air for ``app_id``.

        Reception cannot be scheduled by the OS: it proceeds as soon as the
        half-duplex radio is free, regardless of any active balloon.
        """
        packet = Packet(app_id, size_bytes, next(self.unit_seq), on_complete)
        packet.submit_t = self.sim.now
        self._rx_queue.append(packet)
        self._maybe_start_rx()
        return packet

    def _maybe_start_rx(self):
        if self._receiving is not None or not self._rx_queue:
            return
        if self._transmitting is not None:
            return   # half-duplex: wait for the transmitter
        packet = self._rx_queue.pop(0)
        self._receiving = packet
        self._cancel_tail()
        packet.tx_start_t = self.sim.now
        self._enter_state(RX)
        self.log.add((self.sim.now, _RX_START, packet.app_id, packet.seq,
                      packet.size_bytes))
        airtime = self.per_packet_overhead + int(
            packet.size_bytes * 8 / self.rate_bps * SEC
        )
        self._rx_event = self.sim.call_later(airtime, self._finish_rx)

    def _finish_rx(self):
        packet = self._receiving
        self._receiving = None
        self._rx_event = None
        now = self.sim.now
        packet.tx_end_t = now
        self.log.add((now, _RX_END, packet.app_id, packet.seq,
                      packet.size_bytes))
        if packet.on_complete is not None:
            packet.on_complete(packet)
        if self._rx_queue:
            self._maybe_start_rx()
        elif self._fifo:
            self._maybe_start_tx()
        else:
            self._enter_state(CAM)
            self._arm_tail(self.tail_timeout)

    def set_tx_level(self, level):
        if not 0 <= level < len(self.power_model.tx_levels_w):
            raise ValueError("bad tx power level {}".format(level))
        self.tx_level = level
        self._update_power()

    # -- power-state virtualization -------------------------------------------

    def snapshot(self):
        """Capture the operating power state (for per-psbox virtualization)."""
        now = self.sim.now
        if self.state == CAM and self._tail_deadline is not None:
            tail_left = max(self._tail_deadline - now, 0)
        elif self.state == TX:
            tail_left = self.tail_timeout
        else:
            tail_left = 0
        return {"tx_level": self.tx_level, "tail_left": tail_left}

    def default_state(self):
        """Pristine operating state for a brand-new context."""
        return {"tx_level": 0, "tail_left": 0}

    def restore(self, state):
        """Restore an operating power state captured by :meth:`snapshot`.

        Only legal while the transmitter is idle (balloon switches happen
        after draining, so this holds by construction).
        """
        if self._transmitting is not None:
            raise RuntimeError("cannot restore NIC power state mid-transmission")
        self.tx_level = state["tx_level"]
        self._cancel_tail()
        if self._receiving is not None:
            # The radio is busy with a reception the OS could not defer;
            # the restored state takes effect when it ends (the receive
            # path parks the chip in CAM with a fresh tail).
            self._update_power()
            return
        if state["tail_left"] > 0:
            self._enter_state(CAM)
            self._arm_tail(state["tail_left"])
        else:
            self._enter_state(PSM)

    # -- internals --------------------------------------------------------------

    def _maybe_start_tx(self):
        if self._transmitting is not None or not self._fifo:
            return
        if self._receiving is not None:
            return   # half-duplex: the receiver owns the radio
        packet = self._fifo.pop(0)
        self._transmitting = packet
        self._cancel_tail()
        packet.tx_start_t = self.sim.now
        self._enter_state(TX)
        self.log.add((self.sim.now, _TX_START, packet.app_id, packet.seq,
                      packet.size_bytes))
        airtime = self.per_packet_overhead + int(
            packet.size_bytes * 8 / self.rate_bps * SEC
        )
        self._tx_event = self.sim.call_later(airtime, self._finish_tx)

    def _finish_tx(self):
        packet = self._transmitting
        self._transmitting = None
        self._tx_event = None
        now = self.sim.now
        packet.tx_end_t = now
        self.log.add((now, _TX_END, packet.app_id, packet.seq,
                      packet.size_bytes))
        self._usage_trace(packet.app_id).add(now, -1.0)
        self._queue_completion(packet)
        if self._rx_queue:
            self._maybe_start_rx()
        elif self._fifo:
            self._maybe_start_tx()
        else:
            self._enter_state(CAM)
            self._arm_tail(self.tail_timeout)
        self.space.fire(self)

    def _queue_completion(self, packet):
        self._pending_completions.append(packet)
        if len(self._pending_completions) >= self.completion_batch:
            self._flush_completions()
        elif self._flush_event is None:
            self._flush_event = self.sim.call_later(
                self.completion_flush, self._flush_completions
            )

    def _flush_completions(self):
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        batch, self._pending_completions = self._pending_completions, []
        for packet in batch:
            if packet.on_complete is not None:
                packet.on_complete(packet)

    def _arm_tail(self, timeout):
        self._cancel_tail()
        self._tail_deadline = self.sim.now + timeout
        self._tail_event = self.sim.call_later(timeout, self._tail_expire)

    def _cancel_tail(self):
        if self._tail_event is not None:
            self._tail_event.cancel()
            self._tail_event = None
        self._tail_deadline = None

    def _tail_expire(self):
        self._tail_event = None
        self._tail_deadline = None
        if self._transmitting is None:
            self._enter_state(PSM)

    def _enter_state(self, state):
        self.state = state
        codes = {PSM: 0.0, CAM: 1.0, TX: 2.0, RX: 3.0}
        self.state_trace.set(self.sim.now, codes[state])
        self._update_power()

    def _update_power(self):
        if self.state == TX:
            watts = self.power_model.tx_w(self.tx_level)
        elif self.state == RX:
            watts = self.power_model.rx_w
        elif self.state == CAM:
            watts = self.power_model.cam_w
        else:
            watts = self.power_model.psm_w
        self.rail.set_part(self.name, watts)

    def _usage_trace(self, app_id):
        if app_id not in self.usage_traces:
            self.usage_traces[app_id] = StepTrace(
                0.0, name="{}.usage.{}".format(self.name, app_id)
            )
        return self.usage_traces[app_id]
