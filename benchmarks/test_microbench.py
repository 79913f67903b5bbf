"""Microbenchmarks of the library's own machinery (multi-round timings)."""

from repro.apps.cpu_apps import calib3d, dedup
from repro.hw.platform import Platform
from repro.kernel.kernel import Kernel
from repro.sidechannel.dtw import dtw_distance, dtw_distances, dtw_matrix
from repro.sim.clock import MSEC, SEC, USEC
from repro.sim.engine import Simulator
from repro.sim.trace import StepTrace


def test_bench_event_loop_throughput(benchmark):
    def run():
        sim = Simulator()

        def ping():
            sim.call_later(1000, ping)

        ping()
        sim.run(until=10 * MSEC)   # 10k chained events
        return sim.now

    benchmark(run)


def test_bench_step_trace_resample(benchmark, rng):
    trace = StepTrace(0.0)
    t = 0
    for _ in range(2000):
        t += int(rng.integers(1000, 100_000))
        trace.set(t, float(rng.random()))

    benchmark(lambda: trace.resample(0, t, 10 * USEC))


def test_bench_step_trace_integrate(benchmark, rng):
    trace = StepTrace(0.0)
    t = 0
    for _ in range(2000):
        t += int(rng.integers(1000, 100_000))
        trace.set(t, float(rng.random()))

    benchmark(lambda: trace.integrate(0, t))


def test_bench_kernel_corun_simulation(benchmark):
    def run():
        platform = Platform.am57(seed=1)
        kernel = Kernel(platform)
        calib3d(kernel, iterations=20)
        dedup(kernel, iterations=40)
        platform.sim.run(until=SEC)
        return platform.sim.now

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bench_dtw(benchmark, rng):
    a = rng.normal(size=300)
    b = rng.normal(size=300)
    benchmark(lambda: dtw_distance(a, b, window=30))


def test_bench_dtw_batch(benchmark, rng):
    """The shape infer() runs: one query against ten templates.  A
    campaign no longer runs it; run() classifies in one dtw_matrix call."""
    a = rng.normal(size=325)
    templates = rng.normal(size=(10, 325))
    benchmark(lambda: dtw_distances(a, templates, window=30))


def test_bench_dtw_matrix(benchmark, rng):
    """The shape one world of the Sec 2.5 campaign runs through run():
    30 traces against ten templates, 325 samples each."""
    queries = rng.normal(size=(30, 325))
    templates = rng.normal(size=(10, 325))
    benchmark(lambda: dtw_matrix(queries, templates, window=30))
