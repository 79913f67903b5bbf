"""Packet scheduler tests: byte-fair queueing + NIC temporal balloons."""

import pytest

from repro.sim.clock import MSEC, SEC

from tests.kernel.conftest import make_app


def send_n(kernel, app, n, size=20_000):
    packets = []
    for _ in range(n):
        packets.append(kernel.net_sched.send(app, size))
    return packets


def test_packets_transmit_in_order_for_one_app(booted):
    platform, kernel = booted
    app = make_app(kernel)
    packets = send_n(kernel, app, 5)
    platform.sim.run(until=SEC)
    ends = [p.tx_end_t for p in packets]
    assert all(e is not None for e in ends)
    assert ends == sorted(ends)


def test_byte_fairness_between_apps(booted):
    platform, kernel = booted
    small = make_app(kernel, "small")
    big = make_app(kernel, "big")
    # big sends 3x the bytes per packet; fair queueing should interleave
    # so cumulative bytes stay comparable.
    for _ in range(20):
        kernel.net_sched.send(big, 30_000)
        kernel.net_sched.send(small, 10_000)
    platform.sim.run(until=2 * SEC)
    b_small = kernel.net_sched.queues[small.id]
    b_big = kernel.net_sched.queues[big.id]
    assert not b_small.pending
    # big's credit grows ~3x faster; small never starves behind it.
    assert b_big.vruntime >= b_small.vruntime


def test_queue_limit_respected(booted):
    platform, kernel = booted
    app = make_app(kernel)
    send_n(kernel, app, 10)
    assert platform.nic.queued_count <= kernel.net_sched.queue_limit


def test_balloon_drains_nic_before_window(booted):
    platform, kernel = booted
    victim = make_app(kernel, "victim")
    boxed = make_app(kernel, "boxed")
    send_n(kernel, victim, 3, size=40_000)
    platform.sim.run(until=MSEC)
    kernel.net_sched.set_psbox(boxed)
    boxed_pkt = kernel.net_sched.send(boxed, 10_000)
    platform.sim.run(until=2 * SEC)
    assert boxed_pkt.tx_start_t is not None
    # The boxed packet starts only after every victim packet ended.
    victim_ends = [t for t, k, p in platform.nic.log.filter(kind="tx_end")
                   if p["app"] == victim.id]
    assert boxed_pkt.tx_start_t >= max(victim_ends)


def test_window_hooks_and_penalty_logged(booted):
    platform, kernel = booted
    boxed = make_app(kernel, "boxed")
    other = make_app(kernel, "other")
    kernel.net_sched.set_psbox(boxed)
    send_n(kernel, boxed, 2)
    send_n(kernel, other, 4)
    platform.sim.run(until=2 * SEC)
    closes = kernel.net_sched.log.filter(kind="window_close")
    assert closes
    assert all("penalty" in payload for _t, _k, payload in closes)


def test_held_packets_flush_in_order_after_window(booted):
    platform, kernel = booted
    boxed = make_app(kernel, "boxed")
    other = make_app(kernel, "other")
    kernel.net_sched.set_psbox(boxed)
    send_n(kernel, boxed, 1)
    held = send_n(kernel, other, 3)
    platform.sim.run(until=2 * SEC)
    starts = [p.tx_start_t for p in held]
    assert all(s is not None for s in starts)
    assert starts == sorted(starts)


def test_set_psbox_twice_rejected(booted):
    platform, kernel = booted
    a, b = make_app(kernel, "a"), make_app(kernel, "b")
    kernel.net_sched.set_psbox(a)
    with pytest.raises(RuntimeError):
        kernel.net_sched.set_psbox(b)


def test_vstate_holder_virtualizes_tx_level(booted):
    platform, kernel = booted
    holder = kernel.net_sched.state_holder
    assert holder is not None
    platform.nic.set_tx_level(2)
    holder.switch_context("psbox.9")
    assert platform.nic.tx_level == 0     # pristine context
    platform.nic.set_tx_level(1)
    holder.switch_context("world")
    assert platform.nic.tx_level == 2     # world state restored
    holder.switch_context("psbox.9")
    assert platform.nic.tx_level == 1     # psbox state kept


def test_dispatch_waits_metric(booted):
    platform, kernel = booted
    app = make_app(kernel)
    send_n(kernel, app, 6)
    platform.sim.run(until=2 * SEC)
    waits = kernel.net_sched.dispatch_waits(app_id=app.id)
    assert len(waits) == 6
    assert max(waits) > 0
