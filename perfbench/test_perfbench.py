"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced.  The tests check that
every metric ``BENCHMARK.json`` names is emitted with its unit, that the
times are medians of speed-scaled passes, that the traced split adds
up, that a corrupted golden makes the run record
nothing, that a run leaves the checkout as it found it, and that a
checkout the benchmark cannot measure is refused.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--seconds", "0.1", "--smoke", *args],
        cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    return json.loads(lines[-1])


def listing():
    return sorted(name for name in os.listdir(ROOT) if name != "__pycache__")


def copy_checkout(root):
    """BENCHMARK.json and perfbench/ copied under ``root`` and the
    program's sources linked in, so a test can break the copy."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), root / "src")
    return root


def edit_goldens(root, change):
    path = root / "perfbench" / "goldens.json"
    goldens = json.loads(path.read_text())
    change(goldens)
    path.write_text(json.dumps(goldens))


@pytest.fixture(scope="module")
def runs():
    """Both kinds of run for every workload, made once for all tests."""
    before = listing()
    out = {}
    for workload in SPEC["workloads"]:
        for trace in ("0", "1"):
            proc, lines = bench("--workload", workload["name"], "--seed",
                                "0", "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            out[workload["name"], trace] = lines
    return before, out


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(runs, trace, kind):
    for workload in SPEC["workloads"]:
        result = result_of(runs[1][workload["name"], trace])
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, workload["name"]


def test_times_are_medians_of_speed_scaled_passes(runs):
    for workload in SPEC["workloads"]:
        lines = runs[1][workload["name"], "0"]
        detail = json.loads(lines[0])
        metrics = result_of(lines)["metrics"]
        walls, setups = detail["pass_quiet_wall_s"], detail["quiet_setup_s"]
        assert len(walls) == len(detail["pass_wall_s"]) >= 2
        assert len(setups) == len(detail["setup_s"]) >= 15
        assert metrics["wall_s"]["value"] == statistics.median(walls)
        assert metrics["setup_s"]["value"] == statistics.median(setups)


def test_traced_split_adds_up_to_the_traced_wall(runs):
    # fails when BENCHMARK.json leaves out a layer's self time
    for workload in SPEC["workloads"]:
        lines = runs[1][workload["name"], "1"]
        detail = json.loads(lines[0])
        metrics = result_of(lines)["metrics"]
        self_sum = sum(m["value"] for name, m in metrics.items()
                       if name.endswith(".self_s"))
        total = self_sum + metrics["trace.unattributed_s"]["value"]
        # one traced pass at --seconds 0.1: the median pass is that one
        assert detail["traced_wall_s"] == [pytest.approx(total, rel=1e-6)]


def test_run_leaves_the_checkout_as_it_was(runs):
    assert listing() == runs[0]


def test_corrupted_golden_records_nothing(tmp_path):
    root = copy_checkout(tmp_path)
    edit_goldens(root, lambda g: g["board/smoke"].__setitem__(0, "0" * 16))
    proc, lines = bench("--workload", "board", "--seed", "0", root=root)
    assert proc.returncode == 1
    result = result_of(lines)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"] == {}


def _no_program(root):
    os.remove(root / "src")


def _no_golden(root):
    edit_goldens(root, lambda g: g.pop("cluster/smoke"))


def _tracer_wraps_nothing(root):
    with open(root / "perfbench" / "layers.py", "a") as handle:
        handle.write("\nLayerTracer.install = lambda self: self\n")


@pytest.mark.parametrize("breakage,args", [
    (_no_program, ("--workload", "board", "--seed", "0")),
    # cluster has no seed of its own: its golden is needed at every seed
    (_no_golden, ("--workload", "cluster", "--seed", "5")),
    (_tracer_wraps_nothing, ("--workload", "board", "--seed", "0",
                             "--trace", "1")),
])
def test_refused_when_it_cannot_measure(tmp_path, breakage, args):
    root = copy_checkout(tmp_path)
    breakage(root)
    proc, lines = bench(*args, root=root)
    assert proc.returncode == 2, proc.stderr
    assert not any(line.startswith('{"correct"') for line in lines)
