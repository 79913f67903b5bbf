"""Cellular (LTE) NIC model (§7 "Support psbox on extra hardware", item 3).

The paper's negative result: temporal balloons work for cellular like they
do for WiFi, but the RRC power-state machine is driven by the *cellular
standard agreed with the tower*, not by the OS — promotions take ~100 ms,
the connected tail lasts seconds, and none of it can be saved/restored per
psbox.  Power-state virtualization is therefore impossible without future
hardware support, and psbox insulation on LTE is measurably weaker.

We model exactly that: a WiFi-like transmitter with an RRC promotion delay
before the first transmission out of idle, a long connected tail, and
``snapshot``/``restore`` that refuse to run.
"""

from repro.hw.nic import CAM, PSM, WifiNic
from repro.hw.power import NicPowerModel
from repro.sim.clock import from_msec, from_usec

_RRC_PROMOTION = ("rrc_promotion",)


def default_lte_power_model():
    """RRC-idle / connected-idle / transmitting power levels."""
    return NicPowerModel(psm_w=0.02, cam_w=0.85,
                         tx_levels_w=(1.10, 1.35, 1.60))


class LteNic(WifiNic):
    """An LTE modem: WiFi transmit machinery + uncontrollable RRC states."""

    def __init__(self, sim, rail, power_model=None, name="lte",
                 promotion_delay=from_msec(110), **kwargs):
        kwargs.setdefault("rate_bps", 25e6)
        kwargs.setdefault("per_packet_overhead", from_usec(700))
        kwargs.setdefault("tail_timeout", from_msec(900))
        kwargs.setdefault("completion_batch", 3)
        kwargs.setdefault("completion_flush", from_msec(20))
        super().__init__(sim, rail, power_model or default_lte_power_model(),
                         name=name, **kwargs)
        self.promotion_delay = promotion_delay
        self._promoting = False

    # -- RRC promotion ----------------------------------------------------------

    def _maybe_start_tx(self):
        if self._transmitting is not None or not self._fifo:
            return
        if self._promoting:
            return
        if self.state == PSM:
            # RRC idle -> connected: the tower grants the connection after
            # the promotion procedure; the radio burns connected-idle power
            # meanwhile.
            self._promoting = True
            self._cancel_tail()
            self._enter_state(CAM)
            self.log.add((self.sim.now, _RRC_PROMOTION))
            self.sim.call_later(self.promotion_delay, self._promoted)
            return
        super()._maybe_start_tx()

    def _promoted(self):
        self._promoting = False
        self._maybe_start_tx()
        if self._transmitting is None and not self._fifo:
            # Nothing left to send: ride the connected tail.
            self._arm_tail(self.tail_timeout)

    # -- the negative result: no power-state virtualization ---------------------

    def snapshot(self):
        raise RuntimeError(
            "LTE RRC state transitions are controlled by the cellular "
            "standard, not the OS; per-psbox virtualization needs future "
            "hardware support (paper §7)"
        )

    def restore(self, state):
        raise RuntimeError("LTE power state cannot be restored by the OS")

    def default_state(self):
        raise RuntimeError("LTE power state cannot be programmed by the OS")
