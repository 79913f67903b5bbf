"""Full-precision pins of the simulator's observable behaviour.

The stdout goldens see rounded text (fig6 prints whole mJ), so a change
that regroups one float product in the kernel or the hardware models can
move every energy by an ulp and still pass them.  These tests hash the
exact state instead — every rail's change points, every scheduler and
device log record, task end states and psbox observation windows
(:func:`repro.faults.fingerprint`), plus windows read back over slices —
and compare the digests with constants committed from a known-good tree.

A second digest per run (:func:`_record_digest`) covers every record of
every event log the run owns, field for field in logged order, ``seq``
included: the kernel's logs, each app's metrics log and an installed
fault plan's log.  ``fingerprint`` sorts payload items, drops ``seq``
and reads only the kernel's logs, yet Fig. 7 and the Shapley baseline
pair dispatches with completions by ``seq``.

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

#: record digests (:func:`_record_digest`), same runs, same rule
RECORD_PINS = {
    "dsp-lte":
        "054be4d2729fa30ee33152cd3991794b1547b5f80f3acf4a036359a9462bebb5",
    "mixed":
        "d8cc9be47b7b0ab67dc36bd29cf59f32d94a452cbb9a86a5d3c342e778b54a2f",
    "powercap":
        "2f398337145682dc58f80600a5bf132351b650d31cfff10b8794393e84c2c74f",
    "sidechannel/google/bare":
        "1f4caf6d4d5b4828ceb43b2153ea9bbcd894de291c2fd92e754e75bdb1da0cec",
    "sidechannel/google/psbox":
        "aceb41211c11a7726221ee025cf3f3470ffc330d7b78d68cba6e5f6aa2dcdac8",
    "sidechannel/reddit/bare":
        "81cde86c6fe2911deaf94b2c4efc78b4da4bbe9d85b0cb5bfb6f5d47beeba067",
    "sidechannel/reddit/psbox":
        "40292ca69401e91763a0e0ea416e74bf9152eeda740279dddf5d7064fc78d3bb",
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


def _record_digest(platform, kernel):
    """sha256 over every record of every event log the run owns."""
    logs = list(kernel.logs())
    logs += [app.events for app in kernel.apps.values()]
    plan = platform.sim.faults
    if plan is not None:
        logs.append(plan.log)
    h = hashlib.sha256()
    for log in logs:
        for t, kind, payload in log:
            h.update(repr((log.name, t, kind,
                           tuple(payload.items()))).encode())
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
    platform, kernel, boxes = RUNS[name]()
    assert _digest(platform, kernel, boxes) == PINS[name]
    assert _record_digest(platform, kernel) == RECORD_PINS[name]


@pytest.mark.parametrize("name", sorted(PINS))
def test_shutdown_keeps_the_pin_and_frees_the_boot(name):
    def run_and_drop():
        platform, kernel, boxes = RUNS[name]()
        for _ in range(2):   # a second shutdown changes nothing
            kernel.shutdown()
            assert platform.sim.pending() == 0
            assert _digest(platform, kernel, boxes) == PINS[name]
            assert _record_digest(platform, kernel) == RECORD_PINS[name]

    assert cyclic_garbage(run_and_drop) == []


if __name__ == "__main__":
    records = {}
    print("PINS")
    for key in sorted(RUNS):
        platform, kernel, boxes = RUNS[key]()
        print("    {!r}: {!r},".format(key, _digest(platform, kernel, boxes)))
        records[key] = _record_digest(platform, kernel)
    print("RECORD_PINS")
    for key in sorted(records):
        print("    {!r}: {!r},".format(key, records[key]))
