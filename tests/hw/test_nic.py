"""Unit tests for the WiFi NIC model."""

import pytest

from repro.hw.nic import CAM, PSM, TX, Packet, WifiNic
from repro.hw.power import NicPowerModel
from repro.hw.rail import PowerRail
from repro.sim.clock import MSEC, SEC, from_msec, from_usec
from repro.sim.engine import Simulator


def make_nic(**kwargs):
    sim = Simulator()
    rail = PowerRail(sim, "wifi")
    nic = WifiNic(sim, rail, NicPowerModel(), **kwargs)
    return sim, rail, nic


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(1, 0)


def test_starts_in_psm_at_psm_power():
    sim, rail, nic = make_nic()
    assert nic.state == PSM
    assert rail.power_now() == pytest.approx(nic.power_model.psm_w)


def test_transmission_timing_and_states():
    sim, rail, nic = make_nic(rate_bps=40e6, per_packet_overhead=from_usec(400))
    done = []
    pkt = Packet(1, 50_000, on_complete=lambda p: done.append(sim.now))
    nic.enqueue(pkt)
    assert nic.state == TX
    assert rail.power_now() == pytest.approx(nic.power_model.tx_w(0))
    sim.run(until=SEC)
    airtime = from_usec(400) + int(50_000 * 8 / 40e6 * 1e9)
    assert pkt.tx_end_t == pytest.approx(airtime, rel=1e-6)


def test_tail_state_then_psm():
    sim, rail, nic = make_nic(tail_timeout=from_msec(60))
    nic.enqueue(Packet(1, 10_000))
    sim.run(until=5 * MSEC)
    assert nic.state == CAM          # tail after transmission
    sim.run(until=SEC)
    assert nic.state == PSM          # tail expired


def test_new_packet_cancels_tail():
    sim, rail, nic = make_nic(tail_timeout=from_msec(60))
    nic.enqueue(Packet(1, 10_000))
    sim.run(until=10 * MSEC)
    assert nic.state == CAM
    nic.enqueue(Packet(1, 10_000))
    assert nic.state == TX


def test_fifo_depth_limit():
    sim, rail, nic = make_nic(fifo_depth=2)
    assert nic.enqueue(Packet(1, 1000))
    assert nic.enqueue(Packet(1, 1000))
    assert not nic.enqueue(Packet(1, 1000))


def test_serial_transmission_order():
    sim, rail, nic = make_nic()
    order = []
    for i in range(3):
        nic.enqueue(Packet(1, 10_000, seq=i,
                           on_complete=lambda p: order.append(p.seq)))
    sim.run(until=SEC)
    assert order == [0, 1, 2]


def test_completion_batching_waits_for_flush_timer():
    sim, rail, nic = make_nic(completion_batch=3,
                              completion_flush=from_msec(15))
    done = []
    pkt = Packet(1, 10_000, on_complete=lambda p: done.append(sim.now))
    nic.enqueue(pkt)
    sim.run(until=SEC)
    # One packet < batch size: notification waits for the flush timer.
    assert done[0] == pytest.approx(pkt.tx_end_t + from_msec(15), rel=1e-6)


def test_completion_batch_fills_and_flushes_immediately():
    sim, rail, nic = make_nic(completion_batch=2,
                              completion_flush=from_msec(15))
    done = []
    for _ in range(2):
        nic.enqueue(Packet(1, 10_000, on_complete=lambda p: done.append(sim.now)))
    sim.run(until=SEC)
    # Second completion fills the batch: both delivered at tx end, not 15ms.
    assert len(done) == 2
    assert done[1] < from_msec(15)


def test_is_drained_accounts_for_pending_notifications():
    sim, rail, nic = make_nic(completion_batch=4)
    nic.enqueue(Packet(1, 10_000))
    sim.run(until=10 * MSEC)       # transmitted, notification pending
    assert nic.queued_count == 0
    assert not nic.is_drained
    sim.run(until=SEC)
    assert nic.is_drained


def test_snapshot_restore_tail_state():
    sim, rail, nic = make_nic(tail_timeout=from_msec(60))
    nic.set_tx_level(2)
    nic.enqueue(Packet(1, 10_000))
    sim.run(until=10 * MSEC)
    assert nic.state == CAM
    state = nic.snapshot()
    assert state["tx_level"] == 2
    assert 0 < state["tail_left"] <= from_msec(60)

    nic.restore(nic.default_state())
    assert nic.state == PSM
    assert nic.tx_level == 0

    nic.restore(state)
    assert nic.state == CAM
    assert nic.tx_level == 2
    sim.run(until=SEC)
    assert nic.state == PSM


def test_restore_mid_transmission_rejected():
    sim, rail, nic = make_nic()
    nic.enqueue(Packet(1, 50_000))
    with pytest.raises(RuntimeError):
        nic.restore(nic.default_state())


def test_bad_tx_level_rejected():
    sim, rail, nic = make_nic()
    with pytest.raises(ValueError):
        nic.set_tx_level(99)


def test_usage_traces_follow_queue_membership():
    sim, rail, nic = make_nic()
    nic.enqueue(Packet(5, 10_000))
    assert nic.usage_traces[5].last_value == 1.0
    sim.run(until=SEC)
    assert nic.usage_traces[5].last_value == 0.0


def test_space_signal_fires_after_each_transmission():
    sim, rail, nic = make_nic()
    fires = []
    nic.space.subscribe(lambda n: fires.append(sim.now))
    nic.enqueue(Packet(1, 10_000))
    nic.enqueue(Packet(1, 10_000))
    sim.run(until=SEC)
    assert len(fires) == 2
