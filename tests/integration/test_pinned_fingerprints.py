"""Full-precision pins of the simulator's observable behaviour.

The stdout goldens see rounded text (fig6 prints whole mJ), so a change
that regroups one float product in the kernel or the hardware models can
move every energy by an ulp and still pass them.  These tests hash the
exact state instead — every rail's change points, every scheduler and
device log record, task end states and psbox observation windows
(:func:`repro.faults.fingerprint`), plus windows read back over slices —
and compare the digests with constants committed from a known-good tree.

The runs between them execute every hot-path module: CFS runqueues and
spatial balloons (``kernel.cfs``, ``kernel.smp``), the temporal balloon
on GPU, DSP, WiFi and LTE (``kernel.balloon``) with and without
admission gates (powercap), governor context switches
(``kernel.governor``), both accelerator engines and the CPU cluster
(``hw.accel``, ``hw.cpu``), step-trace integration on both sides of its
numpy switch (``sim.trace``) and the virtual meter's window reads
(``core.vmeter``).

Only pure-Python state is hashed (change points, log records, task
states, windows); no numpy array or scalar is digested.  The runs still
draw numpy ``Generator`` streams, as every run and perfbench's goldens
do.  A change that
alters simulated output on purpose regenerates the constants with
``PYTHONPATH=src python tests/integration/test_pinned_fingerprints.py``
and says so in CHANGES.md; any other change must pass them unedited.

Each run is also a case of the boot-lifetime contract
(:meth:`repro.kernel.kernel.Kernel.shutdown`): after shutdown the digest
still equals the pin, a second shutdown changes nothing, and once the run
is dropped nothing of it is left for the cyclic collector.
"""

import gc
import hashlib
import weakref
from collections import Counter

import pytest

from repro.apps.base import App
from repro.apps.dsp_apps import monte, sgemm
from repro.apps.websites import browse_website
from repro.experiments.common import boot
from repro.experiments.faults_exp import build_workload
from repro.faults import fingerprint
from repro.hw.platform import EXTENDED_COMPONENTS
from repro.kernel.actions import Compute, SendPacket, Sleep
from repro.kernel.kernel import Kernel
from repro.sidechannel.attack import WebsiteFingerprinter, _camouflage
from repro.sim.clock import SEC, from_msec, from_usec

#: sha256 digests at the last commit that changed simulated output
PINS = {
    "mixed":
        "2cd5db99b8326534c7091525677c222b6e6e3f2fe2d40a0666bcffb285ba4b89",
    "powercap":
        "d9b7c9fa1a9965cdf3473e8fe383f97e185c367095531c1fe93df5ed810a4262",
    "sidechannel/google/bare":
        "cd9a296c42d01c9888bc12f3600498d8bd3d7e6e42e9fecdf8882f67c79065ab",
    "sidechannel/google/psbox":
        "6a76566529f81559a26c7453ee7ec43d42ea8e9f0d81164de885270a5c801aac",
    "sidechannel/reddit/bare":
        "b182e5e82b3425f9ef75d047772e1135160e25a291f3a263b62608003960144a",
    "sidechannel/reddit/psbox":
        "366b5cdf06e2dd79088177f326c132fba913f87f2e766e3816578c7a8058bf96",
    "dsp-lte":
        "98f2d6fd0f15f42b32afe61e52d1d782c1e49c90ca75e34d997d69eb79bd50b2",
}

#: slices over which every psbox's observation windows are read back
WINDOW_SLICES = 7


def _digest(platform, kernel, boxes):
    """``fingerprint`` plus each psbox's windows over sub-intervals."""
    h = hashlib.sha256(fingerprint(platform, kernel).encode())
    now = platform.sim.now
    step = now // WINDOW_SLICES
    bounds = [(k * step, (k + 1) * step + step // 3)
              for k in range(WINDOW_SLICES)]
    bounds.append((now // 2, now // 2))          # empty: t1 <= t0
    bounds.append((now // 3, now + SEC))         # past the end
    for box in boxes:
        for comp in box.components:
            for t0, t1 in bounds:
                h.update(repr((box.app.id, comp, t0, t1,
                               box.vmeter.windows(comp, t0, t1))).encode())
    return h.hexdigest()


def _workload(name):
    work = build_workload(name, 0)
    work.platform.sim.run(until=work.horizon_ns)
    return work.platform, work.kernel, list(work.boxes.values())


def _sidechannel(site, use_psbox):
    """One boot shaped like ``WebsiteFingerprinter.observe``."""
    platform, kernel = boot(seed=200)
    attacker = App(kernel, "attacker")
    attacker.spawn(_camouflage(attacker), name="attacker.camo")
    boxes = []
    if use_psbox:
        box = attacker.create_psbox(("gpu",))
        box.enter()
        boxes.append(box)
    browse_website(kernel, site)
    platform.sim.run(until=WebsiteFingerprinter().trace_duration)
    return platform, kernel, boxes


def _sender(kernel, name, device, size, gap, weight=1.0):
    app = App(kernel, name, weight=weight)

    def behavior():
        while True:
            yield SendPacket(size, wait=True, device=device)
            yield Sleep(gap)

    app.spawn(behavior())
    return app


def _cruncher(kernel, name, burst, pause, weight=1.0):
    app = App(kernel, name, weight=weight)

    def behavior():
        while True:
            yield Compute(burst)
            yield Sleep(pause)

    app.spawn(behavior(), weight=weight)
    return app


def _dsp_lte():
    """Boxed DSP and LTE apps against rivals; the mixed board has neither.

    The rivals weigh other than 1.0, so CFS, accelerator and packet
    billing divide by something other than one.
    """
    platform, kernel = boot(seed=3, components=EXTENDED_COMPONENTS)
    boxed_dsp = monte(kernel, "boxed.dsp", iterations=40)
    sgemm(kernel, "rival.dsp", iterations=12, weight=0.7)
    boxed_lte = _sender(kernel, "boxed.lte", "lte", 20_000, from_msec(30))
    _sender(kernel, "rival.lte", "lte", 30_000, from_msec(45), weight=1.3)
    _cruncher(kernel, "cpu.one", 2e6, from_usec(400))
    _cruncher(kernel, "cpu.two", 3e6, from_usec(300), weight=1.3)
    boxes = [boxed_dsp.create_psbox(("dsp",)),
             boxed_lte.create_psbox(("lte",))]
    for box in boxes:
        box.enter()
    platform.sim.run(until=int(1.5 * SEC))
    return platform, kernel, boxes


RUNS = {
    "mixed": lambda: _workload("mixed"),
    "powercap": lambda: _workload("powercap"),
    "sidechannel/google/bare": lambda: _sidechannel("google", False),
    "sidechannel/google/psbox": lambda: _sidechannel("google", True),
    "sidechannel/reddit/bare": lambda: _sidechannel("reddit", False),
    "sidechannel/reddit/psbox": lambda: _sidechannel("reddit", True),
    "dsp-lte": _dsp_lte,
}


def cyclic_garbage(fn):
    """Types of what ``fn()`` leaves to the cyclic collector, by count.

    The collector is off while ``fn`` runs, so only reference counting
    frees anything, and every older object is frozen out of its view.
    Two things count as left: whatever one collection then finds
    (``gc.DEBUG_SAVEALL`` keeps it), and whatever of a boot that ``fn``
    shut down is still alive once ``fn`` has returned: its kernel,
    platform, apps, tasks and their behaviours.  The second catches what
    the first cannot, because a suspended generator's finalizer breaks
    its cycle during the collection, which then counts nothing.  ``fn``
    must keep nothing it makes alive past its return.
    """
    shutdown = Kernel.shutdown
    boots = []

    def recording_shutdown(kernel):
        boots.extend(weakref.ref(obj) for obj in (
            kernel, kernel.platform, *kernel.apps.values(), *kernel.tasks,
            *(task.behavior for task in kernel.tasks)))
        shutdown(kernel)

    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    Kernel.shutdown = recording_shutdown
    try:
        fn()
        left = Counter(type(ref()).__qualname__ for ref in boots
                       if ref() is not None)
        gc.collect()
        left.update(type(obj).__qualname__ for obj in gc.garbage)
        return left.most_common()
    finally:
        Kernel.shutdown = shutdown
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_fingerprint(name):
    assert _digest(*RUNS[name]()) == PINS[name]


@pytest.mark.parametrize("name", sorted(PINS))
def test_shutdown_keeps_the_pin_and_frees_the_boot(name):
    def run_and_drop():
        platform, kernel, boxes = RUNS[name]()
        for _ in range(2):   # a second shutdown changes nothing
            kernel.shutdown()
            assert platform.sim.pending() == 0
            assert _digest(platform, kernel, boxes) == PINS[name]

    assert cyclic_garbage(run_and_drop) == []


if __name__ == "__main__":
    for key in sorted(RUNS):
        print("    {!r}: {!r},".format(key, _digest(*RUNS[key]())))
