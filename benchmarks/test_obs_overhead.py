"""Observability overhead: event-loop throughput and hook cost.

Emits ``BENCH_obs.json`` at the repo root — the perf-trajectory data the
ROADMAP asks for: raw event-loop throughput (events/sec, with no session
installed), the cost of an installed session with tracing *off* (metrics
hooks live), and the cost of tracing *on*.  ``Simulator.run`` is one loop
in all three: only the instrumentation sites tell them apart.  The
``trajectory`` list keeps
one labelled entry per hot-path generation so the speed story stays visible
across PRs.  The JSON and the results table are written only after the
bounds pass, so a failing run records nothing.

Methodology notes, learned the hard way on this host:

* the CPU's frequency governor idles low and takes ~2 s of sustained load
  to reach steady state, so every session starts with a busy-loop warmup —
  without it the first measurement reads ~3x slow;
* rounds are *interleaved* across the no-session / tracer-off / tracer-on
  variants (rather than N rounds of each in sequence) so slow frequency
  drift hits all three equally instead of biasing the overhead ratios.

Assertion bounds are deliberately loose — CI machines are noisy — the JSON
carries the real numbers.
"""

import json
import os
import time

import pytest

from repro.analysis.report import format_table
from repro.experiments.faults_exp import build_workload
from repro.obs import Obs
from repro.sim.clock import MSEC
from repro.sim.engine import Simulator

from benchmarks.conftest import report

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs.json")

LOOP_HORIZON = 50 * MSEC      # 50k chained 1us events per round
ROUNDS = 25

#: Label for this hot-path generation's trajectory entry.  Bump when the
#: engine changes enough that the next measurement starts a new story.
GENERATION = "pr7-slot-heap-queue"

#: Historical trajectory entries (same microbenchmark, earlier engines).
#: pr3 numbers are the recorded BENCH_obs.json from the original session;
#: pr7-prehost is the *pre-rewrite* engine measured warm on the PR 7 host,
#: the honest same-host baseline for the rewrite's multiple.
HISTORY = [
    {
        "label": "pr3-heap-queue",
        "events_per_sec": 1131133.2,
        "tracer_on_overhead_pct": 31.5,
        "kernel_tracer_on_overhead_pct": 24.2,
    },
    {
        "label": "pr7-prehost-heap-queue",
        "events_per_sec": 920402.2,
        "tracer_on_overhead_pct": 27.0,
        "kernel_tracer_on_overhead_pct": -7.2,
    },
]


def _warm(seconds=2.0):
    """Hold the CPU busy until the frequency governor reaches steady state."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(1000))


def _time_interleaved(fns, rounds=ROUNDS):
    """Best-of-N wall seconds for each fn, with rounds interleaved."""
    best = [None] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - t0
            best[i] = elapsed if best[i] is None else min(best[i], elapsed)
    return best


def _event_loop(obs_mode):
    """The chained-ping microbenchmark; obs_mode None/False/True."""
    sim = Simulator()
    if obs_mode is not None:
        Obs(sim, tracing=obs_mode).install()

    def ping():
        sim.call_later(1000, ping)

    ping()
    sim.run(until=LOOP_HORIZON)
    return sim.now


def _kernel_run(obs_mode):
    """The mixed full-board workload, exercising the instrumented sites."""
    work = build_workload("mixed", 0)
    if obs_mode is not None:
        Obs(work.platform.sim, tracing=obs_mode).install() \
            .bind_kernel(work.kernel)
    work.platform.sim.run(until=work.horizon_ns)
    return work.platform.sim.now


def _overhead_pct(base_s, with_s):
    return 100.0 * (with_s - base_s) / base_s


def _load_trajectory():
    """Prior trajectory (recorded file if present, else the history seed)."""
    try:
        with open(BENCH_PATH) as handle:
            recorded = json.load(handle)
    except (OSError, ValueError):
        recorded = {}
    trajectory = recorded.get("trajectory") or list(HISTORY)
    return [entry for entry in trajectory if entry.get("label") != GENERATION]


def test_bench_obs_overhead_and_emit_json():
    _warm()
    loop_events = LOOP_HORIZON // 1000
    loop_base, loop_off, loop_on = _time_interleaved([
        lambda: _event_loop(None),
        lambda: _event_loop(False),
        lambda: _event_loop(True),
    ])
    kern_base, kern_off, kern_on = _time_interleaved([
        lambda: _kernel_run(None),
        lambda: _kernel_run(False),
        lambda: _kernel_run(True),
    ], rounds=5)

    trajectory = _load_trajectory()
    trajectory.append({
        "label": GENERATION,
        "events_per_sec": round(loop_events / loop_base, 1),
        "tracer_on_overhead_pct": round(_overhead_pct(loop_base, loop_on), 1),
        "kernel_tracer_on_overhead_pct": round(
            _overhead_pct(kern_base, kern_on), 1),
    })

    payload = {
        "event_loop": {
            "events": int(loop_events),
            "events_per_sec": loop_events / loop_base,
            "no_session_s": loop_base,
            "tracer_off_s": loop_off,
            "tracer_on_s": loop_on,
            "tracer_off_overhead_pct": _overhead_pct(loop_base, loop_off),
            "tracer_on_overhead_pct": _overhead_pct(loop_base, loop_on),
        },
        "kernel_workload": {
            "workload": "faults_exp mixed (1.2 sim-s full board)",
            "no_session_s": kern_base,
            "tracer_off_s": kern_off,
            "tracer_on_s": kern_on,
            "tracer_off_overhead_pct": _overhead_pct(kern_base, kern_off),
            "tracer_on_overhead_pct": _overhead_pct(kern_base, kern_on),
        },
        "trajectory": trajectory,
    }

    # Loose sanity bounds only — the JSON carries the honest numbers.  The
    # strict floor lives in tests/sim/test_perf_floor.py behind PSBOX_PERF.
    assert payload["event_loop"]["events_per_sec"] > 10_000
    assert payload["event_loop"]["tracer_off_overhead_pct"] < 15
    assert payload["event_loop"]["tracer_on_overhead_pct"] < 15
    assert payload["kernel_workload"]["tracer_off_overhead_pct"] < 15
    with open(BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    rows = []
    for section, label in (("event_loop", "event loop (50k events)"),
                           ("kernel_workload", "mixed board (1.2 sim-s)")):
        data = payload[section]
        rows.append([
            label, "{:.4f}".format(data["no_session_s"]),
            "{:+.1f}%".format(data["tracer_off_overhead_pct"]),
            "{:+.1f}%".format(data["tracer_on_overhead_pct"]),
        ])
    rows.append(["event-loop throughput",
                 "{:,.0f} events/s".format(
                     payload["event_loop"]["events_per_sec"]), "", ""])
    report("OBS-OVERHEAD", format_table(
        ["workload", "no session", "tracer off", "tracer on"], rows,
        title="Observability overhead (best of {} interleaved rounds)".format(
            ROUNDS),
    ))


def test_a_run_over_its_bounds_writes_nothing(monkeypatch, tmp_path):
    """Timings past the overhead bound fail the run and leave no JSON."""
    path = tmp_path / "BENCH_obs.json"
    monkeypatch.setitem(globals(), "BENCH_PATH", str(path))
    monkeypatch.setitem(globals(), "_warm", lambda: None)
    monkeypatch.setitem(globals(), "_time_interleaved",
                        lambda fns, rounds=ROUNDS: [1.0, 1.3, 1.3])
    with pytest.raises(AssertionError):
        test_bench_obs_overhead_and_emit_json()
    assert not path.exists()
