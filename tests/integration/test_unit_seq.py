"""Accelerator commands and NIC packets are numbered per boot.

Each device numbers its own units, so a boot's ``seq`` labels in the
engine, NIC and balloon logs do not depend on what ran earlier in the
process.
"""

from repro.apps.dsp_apps import monte
from repro.apps.gpu_apps import magic
from repro.apps.traffic import inbound_stream
from repro.experiments.common import boot
from repro.hw.platform import EXTENDED_COMPONENTS
from repro.sim.clock import SEC, from_msec
from tests.integration.test_pinned_fingerprints import _sender


def _labelled_boot():
    """One seed-5 boot of GPU, DSP, WiFi and LTE traffic, sent and received;
    returns each log's ``(kind, seq)`` records by log name."""
    platform, kernel = boot(seed=5, components=EXTENDED_COMPONENTS)
    magic(kernel, "gpu", frames=20)
    monte(kernel, "dsp", iterations=10)
    for device, nic in (("wifi", platform.nic), ("lte", platform.lte)):
        app = _sender(kernel, device, device, 20_000, from_msec(20))
        inbound_stream(platform, app.id, count=6, nic=nic)
    platform.sim.run(until=SEC)
    kernel.shutdown()
    return {log.name: [(kind, payload["seq"]) for _t, kind, payload in log
                       if "seq" in payload]
            for log in kernel.logs()}


def test_same_seed_boots_log_the_same_seq_labels():
    first = _labelled_boot()
    second = _labelled_boot()
    assert second == first
    for name in ("gpu.commands", "dsp.commands", "wifi.packets",
                 "lte.packets"):
        assert first[name], name
    for name in ("wifi.packets", "lte.packets"):
        # sent and received packets share one sequence from zero
        starts = [seq for kind, seq in first[name]
                  if kind in ("tx_start", "rx_start")]
        assert {"tx_start", "rx_start"} <= {kind for kind, _ in first[name]}
        assert len(set(starts)) == len(starts)
        assert min(starts) == 0
    for labels in first.values():
        # units are numbered as they are made: submits count up
        submits = [seq for kind, seq in labels if kind == "submit"]
        assert submits == sorted(set(submits))
