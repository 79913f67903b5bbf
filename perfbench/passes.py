"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passes.py WORKLOAD SEED SIZE MODE

``MODE`` is ``setup`` (imports and boot only), ``run`` or ``trace`` (run
with layer spans, see ``layers.py``).  The pass prints ``READY`` once its
imports and boot are done, so the parent can time interpreter start to
ready as set-up.  It then runs the workload in the current directory and
writes ``result.json`` there: ``wall_s`` from the first call to the
checked result, ``peak_rss_kb``, one fingerprint per operation, and with
``trace`` the layer report.  In ``setup`` and ``run`` mode a
:class:`Speedometer` samples the host's speed all along; ``result.json``
gets its summary for the set-up and for the timed run.

Each workload drives the program only through entry points the open
roadmap items keep: ``build_workload``, ``run_sidechannel`` and the
experiments CLI, which arms obs through its own flags.
"""

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: simulated slices of the mixed board per pass, at each size
BOARD_SLICES = {"full": 15, "smoke": 2}
#: (sites, trials per site) of the side-channel figure; None = all ten,
#: and three trials is the figure's own default
SIDECHANNEL_SHAPE = {"full": (None, 3), "smoke": (2, 1)}
#: nodes of the obs-armed cluster run: two is what the CI observability
#: job runs
CLUSTER_NODES = {"full": 2, "smoke": 1}
#: read by run.py from the pass's working directory
RESULT_FILE = "result.json"
#: iterations of the speed probe's reference loop (about 0.2 ms)
REF_LOOPS = 2000
#: host seconds between two speed samples
SAMPLE_PERIOD_S = 0.02


def reference_loop(n):
    """Fixed pure-Python work whose time tracks the host's speed."""
    total = 0
    table = {}
    for i in range(n):
        total += i * i % 7
        table[i & 255] = total
    return total


class Speedometer:
    """The host's speed, sampled in between the workload's own bytecodes.

    The host is a VM whose neighbours on the same physical cores slow it
    by up to half within seconds; CPU time slows just as much, so it
    cannot hide this.  Every ``SAMPLE_PERIOD_S`` a timer signal times one
    ``reference_loop(REF_LOOPS)``: the samples see the host when and
    where the workload runs.  The samples are evenly spread in time, so
    the time-weighted speed is the mean of ``1 / sample``, and a phase's
    speed is summed up by the harmonic mean of its samples.
    """

    def __init__(self):
        self.samples = []

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self):
        """Summary of the samples since the last call, which it drops."""
        if not self.samples:
            self._sample(None, None)
        samples, self.samples = self.samples, []
        return {"ref_s": statistics.harmonic_mean(samples),
                "probe_s": sum(samples)}

    def _sample(self, _signum, _frame):
        start = perf_counter()
        reference_loop(REF_LOOPS)
        self.samples.append(perf_counter() - start)


def digest(value):
    """Short stable fingerprint of one operation's canonical text."""
    return hashlib.sha256(value.encode()).hexdigest()[:16]


class Board:
    """The faults campaign's mixed board, bare, in fixed slices.

    One fingerprint per slice: every rail's energy over the slice and
    every app's counters at its end.
    """

    def __init__(self, seed, size):
        from repro.experiments.faults_exp import MIXED_HORIZON_S, build_workload
        from repro.sim.clock import SEC

        self.work = build_workload("mixed", seed)
        self.slice_ns = int(MIXED_HORIZON_S * SEC)
        self.slices = BOARD_SLICES[size]

    def run(self):
        platform = self.work.platform
        apps = [app for app, _factory in self.work.crash_targets]
        ops = []
        for k in range(self.slices):
            t0, t1 = k * self.slice_ns, (k + 1) * self.slice_ns
            platform.sim.run(until=t1)
            state = ([(name, rail.energy(t0, t1))
                      for name, rail in sorted(platform.rails.items())]
                     + [(app.name, sorted(app.counters.items()))
                        for app in apps])
            ops.append(("slice {}".format(k), repr(state)))
        return ops


class Sidechannel:
    """The section 2.5 figure through ``run_sidechannel``.

    One fingerprint per trial (its site and predicted site, in a
    canonical order) plus each world's success rate.
    """

    def __init__(self, seed, size):
        from repro.apps.websites import WEBSITES
        from repro.experiments.sidechannel_exp import run_sidechannel

        sites, self.trials = SIDECHANNEL_SHAPE[size]
        self.sites = tuple(WEBSITES)[:sites] if sites else None
        # seed 0 is run_sidechannel's own default seed
        self.seed = 1000 + seed
        self.run_sidechannel = run_sidechannel

    def run(self):
        result = self.run_sidechannel(sites=self.sites,
                                      trials_per_site=self.trials,
                                      seed=self.seed)
        ops = []
        for world, attack in (("without", result.without_psbox),
                              ("with", result.with_psbox)):
            for (site, predicted), n in sorted(attack.confusion.items()):
                for _ in range(n):
                    ops.append(("{} {}".format(world, site),
                                repr((world, site, predicted))))
            ops.append(("{} success".format(world),
                        repr((world, attack.success_rate))))
        return ops


class Cluster:
    """``cluster --nodes 2 --telemetry --report --flight`` through the CLI.

    The CLI has no seed flag, so this workload always runs its fixed
    seed.  One fingerprint per allocator run's metrics, and one for the
    alert report.
    """

    def __init__(self, seed, size):
        import repro.experiments.cluster_exp  # noqa: F401  (set-up imports)
        import repro.obs.alerts  # noqa: F401
        from repro.experiments.__main__ import main

        self.main = main
        self.nodes = CLUSTER_NODES[size]

    def run(self):
        status = self.main(["cluster", "--nodes", str(self.nodes),
                            "--jobs", "1", "--telemetry", "--report",
                            "--flight"])
        if status:
            raise RuntimeError("cluster CLI exited with {}".format(status))
        with open("BENCH_cluster.json") as handle:
            bench = json.load(handle)
        with open(os.path.join("telemetry", "report.json")) as handle:
            report = json.load(handle)
        ops = [("allocator " + name,
                json.dumps(bench["allocators"][name], sort_keys=True))
               for name in sorted(bench["allocators"])]
        ops.append(("alert report", json.dumps(report, sort_keys=True)))
        return ops


WORKLOADS = {"board": Board, "sidechannel": Sidechannel, "cluster": Cluster}


def obs_artefacts():
    """(flight dumps, bytes) the run left under ``telemetry/`` and
    ``flight/``."""
    dumps = written = 0
    for sub in ("telemetry", "flight"):
        for dirpath, _dirs, files in os.walk(sub):
            for name in files:
                written += os.path.getsize(os.path.join(dirpath, name))
                if sub == "flight" and name.startswith("flight-"):
                    dumps += 1
    return dumps, written


def main(argv):
    name, seed, size, mode = argv
    tracer = speed = None
    if mode == "trace":
        # a traced pass reports where its time went: a probe would add
        # its own time to whichever layer it interrupted
        from layers import LayerTracer

        tracer = LayerTracer().install()
    else:
        speed = Speedometer().start()
    workload = WORKLOADS[name](int(seed), size)
    print("READY", flush=True)
    result = {}
    if speed is not None:
        result["setup_speed"] = speed.take()
    if mode == "setup":
        speed.stop()
        with open(RESULT_FILE, "w") as handle:
            json.dump(result, handle)
        return 0
    # what the workload prints (the cluster CLI's tables) goes nowhere, so
    # a full pipe can never stall it
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if tracer is not None:
        tracer.reset()
    if speed is not None:
        speed.samples.clear()
    start = perf_counter()
    ops = workload.run()
    fingerprints = [digest(text) for _label, text in ops]
    wall_s = perf_counter() - start
    if speed is not None:
        speed.stop()
        result["speed"] = speed.take()
        # the probe's own samples are not the workload's time
        wall_s -= result["speed"]["probe_s"]
    result.update({
        "wall_s": wall_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "labels": [label for label, _text in ops],
        "fingerprints": fingerprints,
    })
    if tracer is not None:
        layers = tracer.report(wall_s)
        layers["obs.flight_dumps"], layers["obs.bytes_written"] = \
            obs_artefacts()
        result["layers"] = layers
    with open(RESULT_FILE, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
