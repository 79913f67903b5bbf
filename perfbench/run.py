"""Host-time benchmark of the psbox reproduction, end to end and per layer.

    python3 perfbench/run.py --workload board --seed 0 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

* ``board``       -- the faults campaign's mixed board, bare, 18 sim-s;
* ``sidechannel`` -- the section 2.5 figure through ``run_sidechannel``;
* ``cluster``     -- ``cluster --nodes 2 --telemetry --report --flight``.

Every pass runs in a fresh interpreter (``passes.py``) after the sources
are byte-compiled, inside a temporary directory under the checkout that
is removed at the end.  Passes repeat until ``--seconds`` have been
measured (at least two).  Each pass samples the host's speed while it
runs (``passes.Speedometer``), and its times are scaled to the host's
quiet speed (:func:`at_quiet_speed`).  ``wall_s`` is the median scaled
pass, ``peak_rss_mb`` the median pass, and ``setup_s`` the median of at
least ``SETUP_SAMPLES`` scaled start-ups.
Every operation's output is fingerprinted: against the goldens in
``goldens.json`` at the default seed (for ``cluster``, at every seed),
against the run's first pass at other seeds.  A run with any failed
operation records no metrics and exits 1.

``--trace 0`` reports the ``end_to_end`` metrics ``BENCHMARK.json``
names; ``--trace 1`` its ``per_layer`` ones.  A traced run measures
untraced passes for half the time and traced passes for the rest, and
reports the per-layer split of the median traced pass plus its overhead
against the untraced median.  The last line of stdout is the JSON
result.  A checkout that cannot be measured (no program, no golden where
one is needed, a tracer that misses the program) exits 2 with no result.
"""

import argparse
import compileall
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: names every metric with its unit: end_to_end for --trace 0, per_layer
#: for --trace 1
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PASS_SCRIPT = os.path.join(HERE, "passes.py")
GOLDENS = os.path.join(HERE, "goldens.json")
#: the host the split in README.md was measured on
BASELINE = os.path.join(HERE, "baseline.json")
#: where a pass leaves its JSON result, in its own working directory
RESULT_FILE = "result.json"

WORKLOADS = ("board", "sidechannel", "cluster")
#: the seed whose fingerprints are committed in goldens.json
DEFAULT_SEED = 0
#: workloads whose entry point takes no seed: goldens hold at every seed
FIXED_SEED = ("cluster",)
MIN_PASSES = 2
SETUP_SAMPLES = 15
#: a pass is not started if it would end past this share of --seconds
OVERRUN = 1.1
#: every child is killed by this many seconds after the run started
DEADLINE_S = 170
#: share of a traced pass allowed outside every layer span: the
#: benchmark's own code is about 0.05%, so more means the wrappers
#: missed part of the program
MAX_UNATTRIBUTED = 0.02
#: seconds of one speed sample (``passes.reference_loop``) when the
#: baseline host runs at its quiet speed: the lowest tenth of 1913
#: samples taken over 40 s of board passes
QUIET_REF_S = 0.000208


class Refused(Exception):
    """The checkout cannot run the benchmark, or cannot measure it."""


def host_fingerprint():
    """What a timing depends on besides the code: compare only equal ones."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform()}


def build():
    """Byte-compile the sources so no pass pays for compiling."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise Refused("no program sources under {}".format(SRC))
    ok = compileall.compile_dir(SRC, quiet=1)
    ok = compileall.compile_dir(HERE, quiet=1, maxlevels=0) and ok
    if not ok:
        raise Refused("the sources do not compile")


def at_quiet_speed(seconds, speed):
    """``seconds`` measured at the sampled ``speed``, as they would read
    on the host at its quiet speed.

    The host's speed swings by up to half within seconds, and the
    workload and the reference loop slow together (their times correlate
    at 0.95-0.97 across passes), so the ratio of the two is the
    program's own cost.
    """
    return seconds * QUIET_REF_S / speed["ref_s"]


class Pass:
    """Outcome of one child interpreter."""

    def __init__(self, setup_s, result=None, error=None):
        self.setup_s = setup_s
        self.result = result
        self.error = error

    def quiet_setup_s(self):
        """Set-up time without the probe's samples, at quiet speed."""
        speed = self.result["setup_speed"]
        return at_quiet_speed(self.setup_s - speed["probe_s"], speed)


def load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def metric_units(kind):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    metrics = load_json(SPEC).get(kind)
    if not metrics:
        raise Refused("{} names no {} metrics".format(SPEC, kind))
    return {m["name"]: m["unit"] for m in metrics}


class Checker:
    """Counts operations and the ones that raised or mismatched."""

    def __init__(self, golden):
        self.reference = golden
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, run):
        if run.result is None:
            n = len(self.reference) if self.reference else 1
            self.attempted += n
            self.failed += n
            self.errors.append(run.error)
            return
        prints = run.result["fingerprints"]
        labels = run.result["labels"]
        if self.reference is None:
            self.reference = prints   # first pass: the second-run reference
        self.attempted += max(len(prints), len(self.reference))
        for i in range(max(len(prints), len(self.reference))):
            got = prints[i] if i < len(prints) else None
            want = self.reference[i] if i < len(self.reference) else None
            if got != want:
                self.failed += 1
                self.errors.append("{}: {} != {}".format(
                    labels[i] if i < len(labels) else "op {}".format(i),
                    got, want))


class Runner:
    """Starts the passes of one run, checks them, keeps set-up samples."""

    def __init__(self, args, size, golden, scratch, deadline):
        self.argv = [sys.executable, PASS_SCRIPT, args.workload,
                     str(args.seed), size]
        self.scratch = scratch
        self.deadline = deadline
        self.checker = Checker(golden)
        self.setups = []

    def spawn(self, mode):
        """One fresh interpreter for one pass; waits for it to end."""
        workdir = tempfile.mkdtemp(prefix="pass-", dir=self.scratch)
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONHASHSEED="0", TMPDIR=workdir)
        stderr_path = os.path.join(workdir, "stderr.txt")
        try:
            with open(stderr_path, "w") as stderr:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    self.argv + [mode], cwd=workdir, env=env,
                    stdout=subprocess.PIPE, stderr=stderr, text=True)
                try:
                    ready, _, _ = select.select(
                        [proc.stdout], [], [],
                        max(0.0, self.deadline - time.time()))
                    line = proc.stdout.readline() if ready else ""
                    setup_s = time.perf_counter() - start
                    proc.wait(timeout=max(1.0, self.deadline - time.time()))
                except subprocess.TimeoutExpired:
                    return Pass(None, error="timed out")
                finally:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
                    proc.stdout.close()
            if line.strip() != "READY" or proc.returncode != 0:
                with open(stderr_path) as handle:
                    tail = handle.read()[-2000:]
                return Pass(None, error="exit {}: {}".format(
                    proc.returncode, tail.strip()))
            with open(os.path.join(workdir, RESULT_FILE)) as handle:
                return Pass(setup_s, result=json.load(handle))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def measure(self, mode, seconds, minimum):
        """Passes until ``seconds`` are measured (at least ``minimum``)."""
        passes = []
        start = time.perf_counter()
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if len(passes) >= minimum and (
                    elapsed >= seconds or elapsed + last > seconds * OVERRUN):
                return passes
            began = time.perf_counter()
            run = self.spawn(mode)
            last = time.perf_counter() - began
            self.checker.check(run)
            if run.result is None:
                return passes
            if mode == "run":
                self.setups.append(run)
            passes.append(run.result)

    def top_up_setups(self):
        """Set-up-only passes until there are SETUP_SAMPLES samples."""
        while not self.checker.failed and len(self.setups) < SETUP_SAMPLES:
            probe = self.spawn("setup")
            if probe.result is None:
                self.checker.check(probe)
            else:
                self.setups.append(probe)


def median_pass(passes):
    """The pass with the median wall time (lower median for even counts)."""
    ordered = sorted(passes, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def layer_metrics(traced, untraced_wall_s, names):
    """Per-layer metrics ``names`` of one traced pass."""
    layers = dict(traced["layers"])
    wall_s = traced["wall_s"]
    if layers["trace.unattributed_s"] > MAX_UNATTRIBUTED * wall_s:
        raise Refused("{:.1%} of the traced pass fell outside every layer "
                      "span (at most {:.0%} allowed): the tracer missed part "
                      "of the program".format(
                          layers["trace.unattributed_s"] / wall_s,
                          MAX_UNATTRIBUTED))

    def per(total_s, count):
        return total_s / count * 1e9 if count else 0.0

    layers["kernel.ns_per_reschedule"] = per(layers["kernel.self_s"],
                                             layers["kernel.reschedules"])
    layers["sim.ns_per_event"] = per(layers["sim.self_s"],
                                     layers["sim.events"])
    layers["sidechannel.dtw_ns_per_cell"] = per(
        layers.pop("sidechannel.dtw_s"), layers["sidechannel.dtw_cells"])
    layers["trace.overhead_pct"] = (
        (wall_s - untraced_wall_s) / untraced_wall_s * 100.0)
    return {name: layers[name] for name in names}


def benchmark(args):
    """Build, run the passes, check them; returns (detail, result)."""
    size = "smoke" if args.smoke else "full"
    key = "{}/{}".format(args.workload, size)
    started = time.time()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    build()
    golden = None
    if not args.write_goldens and (args.workload in FIXED_SEED
                                   or args.seed == DEFAULT_SEED):
        golden = load_json(GOLDENS).get(key)
        if golden is None:
            raise Refused("no golden fingerprints for {} in {}".format(
                key, GOLDENS))
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(args, size, golden, scratch, started + DEADLINE_S)
        if args.trace:
            untraced = runner.measure("run", args.seconds / 2, 1)
            traced = runner.measure("trace", args.seconds / 2, 1)
        else:
            untraced = runner.measure("run", args.seconds, MIN_PASSES)
            traced = []
            runner.top_up_setups()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    checker = runner.checker

    host = host_fingerprint()
    same_host = host == load_json(BASELINE).get("host")
    if not same_host:
        print("perfbench: this host differs from the one baseline.json was "
              "measured on; do not compare these numbers with it",
              file=sys.stderr)
    quiet_walls = [at_quiet_speed(r["wall_s"], r["speed"]) for r in untraced]
    quiet_setups = [run.quiet_setup_s() for run in runner.setups]
    detail = {"workload": args.workload, "seed": args.seed, "size": size,
              "host": host, "same_host_as_baseline": same_host,
              "pass_wall_s": [r["wall_s"] for r in untraced],
              "pass_quiet_wall_s": quiet_walls,
              "setup_s": [run.setup_s for run in runner.setups],
              "quiet_setup_s": quiet_setups,
              "traced_wall_s": [r["wall_s"] for r in traced],
              "elapsed_s": time.time() - started}
    for error in checker.errors[:10]:
        print("perfbench: FAILED {}".format(error), file=sys.stderr)
    if checker.failed:
        return detail, {"correct": False, "attempted": checker.attempted,
                        "failed": checker.failed, "metrics": {}}
    if args.write_goldens:
        write_golden(key, untraced[0]["fingerprints"])

    if args.trace:
        values = layer_metrics(
            median_pass(traced),
            statistics.median(r["wall_s"] for r in untraced), units)
    else:
        values = {
            "wall_s": statistics.median(quiet_walls),
            "setup_s": statistics.median(quiet_setups),
            "peak_rss_mb": statistics.median(
                r["peak_rss_kb"] / 1024.0 for r in untraced),
        }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return detail, {"correct": True, "attempted": checker.attempted,
                    "failed": 0, "metrics": metrics}


def write_golden(key, fingerprints):
    goldens = load_json(GOLDENS)
    goldens[key] = fingerprints
    with open(GOLDENS, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Host-time benchmark, end to end and per layer.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to measure (at least two passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny passes, for the benchmark's own tests")
    parser.add_argument("--write-goldens", action="store_true",
                        help="record this run's fingerprints as the goldens "
                             "(checked only against its own first pass)")
    args = parser.parse_args(argv)
    if args.write_goldens and args.seed != DEFAULT_SEED:
        parser.error("--write-goldens needs --seed {}".format(DEFAULT_SEED))
    try:
        detail, result = benchmark(args)
    except Refused as exc:
        print("perfbench: {}".format(exc), file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    for name, metric in sorted(result["metrics"].items()):
        print("{:<30} {:>16.6f} {}".format(name, metric["value"],
                                           metric["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
