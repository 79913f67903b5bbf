"""Tests for the `python -m repro.experiments` CLI and its drivers."""

import dataclasses
import difflib
import gc
import hashlib
import json
import os
import pathlib
import re

import numpy as np
import pytest

from repro.experiments import DRIVERS, driver
from repro.experiments.__main__ import build_parser, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: subcommands whose stdout is committed, and whose full-precision result
#: is pinned in ``golden/results.sha256``
GOLDEN_FAST = ("fig3", "fig6", "fig7", "fig8", "fig9", "sec62", "sec63",
               "powercap", "faults", "sidechannel")


def test_list_prints_registry(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in DRIVERS:
        assert name in out


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["fig99"])


@pytest.mark.parametrize("argv", [
    ["fig7", "--profile", "0"],
    ["fig7", "--profile", "-5"],
    ["cluster", "--nodes", "0"],
    ["cluster", "--nodes", "-1"],
    ["faults", "--seeds", "0"],
    ["faults", "--jobs", "0"],
])
def test_counts_below_one_are_usage_errors(argv, capsys):
    """A count below 1 is a usage error before anything runs, as for
    ``--jobs``: pstats would print no rows (or all but N), ``--nodes 0``
    would fall back to the default topology and ``--nodes -1`` fail in
    ClusterTopology, and ``--seeds 0`` would pass an empty soak."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be >= 1" in captured.err
    assert captured.out == ""


def test_registry_covers_every_eval_section():
    """Every paper figure and section has a golden; cluster and sweep are
    the two subcommands without one."""
    assert set(DRIVERS) == set(GOLDEN_FAST) | {"cluster", "sweep"}


def test_sweep_items_validates_names():
    """Typos fail fast in the library entry point, not as a CellError deep
    inside a worker; 'sweep' itself is rejected (it would recurse)."""
    from repro.experiments.sweep import sweep_items

    with pytest.raises(ValueError, match="unknown sweep cells: bogus"):
        sweep_items(["fig3", "bogus"])
    with pytest.raises(ValueError, match="unknown sweep cells: sweep"):
        sweep_items(["sweep"])


def test_sweep_unknown_only_cell_is_clean_cli_error(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--only", "bogus"])


def _forced_campaign(monkeypatch, miss):
    """Replace each scenario run with an instant outcome that matches its
    expectation, except the scenario named ``miss``."""
    from repro.experiments import faults_exp

    def run_scenario(scn, seed=0, **_kwargs):
        matches = scn.name != miss
        return faults_exp.ScenarioOutcome(
            name=scn.name, workload=scn.workload, expect=scn.expect,
            injections=1, violations=0, checks=1,
            outcome=scn.expect if matches else "forced-miss",
            matches=matches)

    monkeypatch.setattr(faults_exp, "run_scenario", run_scenario)


def test_faults_exits_1_when_a_scenario_mismatches(monkeypatch, capsys):
    """The nightly soak's failure signal is the exit status."""
    _forced_campaign(monkeypatch, miss="ipi-drop")
    assert main(["faults"]) == 1
    out = capsys.readouterr().out
    assert "ipi-drop" in out and "MISMATCH" in out
    assert "campaign FAILED: 13/14" in out

    assert main(["faults", "--seeds", "2"]) == 1
    assert capsys.readouterr().out.count("MISMATCH ipi-drop") == 2


def test_faults_exits_0_when_every_scenario_matches(monkeypatch, capsys):
    _forced_campaign(monkeypatch, miss=None)
    assert main(["faults"]) == 0
    assert "campaign ok: 14/14" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_module_imports(name):
    """Every registered subcommand's driver imports cleanly and has the
    driver contract: ``result(args)`` and ``render(result)``."""
    module = driver(name)
    assert callable(module.result) and callable(module.render)


def test_run_one_experiment(capsys):
    """The CLI prints a subcommand's block as the golden tests compose it."""
    assert main(["sec63"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "sec63.txt").read_text()


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_run_every_experiment(name, capsys):
    """Full smoke over every subcommand (slow; nightly CI sets the gate)."""
    if not os.environ.get("PSBOX_SMOKE_ALL"):
        pytest.skip("set PSBOX_SMOKE_ALL=1 to smoke-run every experiment")
    assert main([name]) == 0
    assert name in capsys.readouterr().out


def cli_block(name, text):
    """The CLI's stdout for one subcommand that rendered ``text``."""
    rule = "#" * 72
    return "{0}\n# {1}\n{0}\n{2}\n".format(rule, name, text)


def canonical(value):
    """``value`` as plain JSON data, to full precision.

    Dataclasses become their fields (those equality compares: a runner's
    wall times are declared ``compare=False``), numpy arrays and scalars
    Python lists and numbers, tuples lists, and dict keys that are not
    strings their ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.compare}
    if isinstance(value, dict):
        return {key if isinstance(key, str) else repr(key): canonical(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError("no canonical JSON for {!r}".format(type(value)))


def result_digest(result):
    """sha256 of the canonical JSON: sorted keys, ``repr`` floats."""
    text = json.dumps(canonical(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_pins(path):
    """``{name: digest}`` from a file of ``sha256sum``-style lines."""
    pins = {}
    for line in path.read_text().splitlines():
        digest, name = line.split("  ", 1)
        pins[name] = digest
    return pins


def golden_result(name):
    """What a bare ``python -m repro.experiments <name>`` computes."""
    return driver(name).result(build_parser().parse_args([name]))


#: ``sha256sum``-style lines, one per golden subcommand: the digest of its
#: result's canonical JSON.  Only a change meant to alter simulated output
#: may regenerate them (``PYTHONPATH=src python
#: tests/experiments/test_cli.py > tests/experiments/golden/results.sha256``)
RESULT_PINS = GOLDEN_DIR / "results.sha256"


@pytest.fixture(scope="module", params=GOLDEN_FAST)
def golden_run(request):
    """One run of a golden subcommand: ``(name, result, rendered text)``,
    shared by its text and result checks."""
    name = request.param
    result = golden_result(name)
    return name, result, driver(name).render(result)


def test_stdout_matches_golden(golden_run):
    """Byte identity of every figure's stdout against the committed text.

    Regenerate one golden with
    ``PYTHONPATH=src python -m repro.experiments <name> >
    tests/experiments/golden/<name>.txt``.
    """
    name, _result, text = golden_run
    out = cli_block(name, text)
    golden = (GOLDEN_DIR / (name + ".txt")).read_text()
    if out != golden:
        diff = difflib.unified_diff(
            golden.splitlines(keepends=True), out.splitlines(keepends=True),
            fromfile="golden/{}.txt".format(name), tofile="stdout")
        pytest.fail("stdout of {} differs from its golden:\n{}".format(
            name, "".join(diff)), pytrace=False)


def test_result_matches_its_pin(golden_run):
    """The result behind the rounded text, pinned to the last bit: a
    one-ulp move in any figure fails here while its text still matches."""
    name, result, _text = golden_run
    pins = read_pins(RESULT_PINS)
    assert sorted(pins) == sorted(GOLDEN_FAST)
    assert result_digest(result) == pins[name], (
        "the result of {} differs from its pin in {}".format(
            name, RESULT_PINS.name))


@pytest.mark.parametrize("name", ["sec63", "fig7"])
def test_a_sweep_cell_prints_its_subcommand_block(name):
    from repro.experiments.sweep import run_sweep_cell

    text = run_sweep_cell(0, {"cell": name})["text"]
    assert cli_block(name, text) == (GOLDEN_DIR / (name + ".txt")).read_text()


#: sha256 of stdout and of every file that ``cluster --nodes 2 --telemetry
#: tele --report --flight fl --bench bench.json`` writes, in ``sha256sum``
#: format; regenerate (only for a change meant to alter the evidence) by
#: running that command in an empty directory, then ``sha256sum`` over
#: its stdout (listed as ``stdout``), ``bench.json``, ``tele/*`` and ``fl/*``
CLUSTER_EVIDENCE = GOLDEN_DIR / "cluster_evidence.sha256"


def _sha256_tree(root):
    """``{relative posix path: sha256}`` of every file under ``root``."""
    return {
        path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()}


def test_cluster_telemetry_report_writes_the_bundle(tmp_path, capsys,
                                                    monkeypatch):
    """The tentpole surface end to end: ``cluster --telemetry --report
    --flight``, pinned byte for byte.

    Output directories are relative, so stdout names no temporary path
    and every byte of it, the telemetry bundle, the flight dumps with
    their manifest and the bench JSON must hash to the committed digests.
    """
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "tele"
    assert main(["cluster", "--nodes", "2", "--telemetry", "tele",
                 "--report", "--flight", "fl",
                 "--bench", "bench.json"]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out
    assert "SLO report" in out

    written = _sha256_tree(tmp_path)
    written["stdout"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    pinned = read_pins(CLUSTER_EVIDENCE)
    assert sorted(written) == sorted(pinned)
    changed = sorted(name for name in pinned if written[name] != pinned[name])
    assert changed == [], "evidence differs from {}: {}".format(
        CLUSTER_EVIDENCE.name, changed)

    # OpenMetrics: valid terminator, per-session cluster series
    om = (out_dir / "metrics.om").read_text()
    assert om.endswith("# EOF\n")
    assert 'cluster_aggregate_w{session="cluster/waterfill"}' in om
    assert 'session="cluster/pi"' in om

    # JSONL series: every line parses; per-epoch cluster series present
    lines = (out_dir / "series.jsonl").read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    by_series = {(d["session"], d["series"]) for d in docs}
    assert ("cluster/waterfill", "cluster.compliance_err") in by_series
    assert ("cluster/pi", "cluster.node_power_w") in by_series
    assert ("cluster", "placement.drop_rate") in by_series

    # merged trace: every session is its own pid track
    trace = json.loads((out_dir / "trace.json").read_text())
    names = {e["args"]["name"] for e in trace["traceEvents"]
             if e.get("name") == "process_name"}
    assert {"cluster", "cluster/waterfill", "cluster/pi",
            "cal/node00", "cal/node01"} <= names
    assert any(name.startswith("waterfill/node") for name in names)

    # structured alert summary
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report) == {"ok", "rules", "alerts", "counts"}
    assert {rule["name"] for rule in report["rules"]} >= {"cap.compliance"}


#: observed figure runs pinned byte for byte like the cluster evidence:
#: pin file -> argv.  fig6's trace holds the balloon and IPI async
#: groups; powercap's flight dumps (``actions``) and ``events.jsonl``
#: carry a live controller's decision log; sec63 writes ``--trace``
#: beside ``--telemetry``.  Regenerate a
#: pin (only for a change meant to alter the output) by running its
#: command in an empty directory, then ``sha256sum`` over its stdout
#: (listed as ``stdout``) and every file it wrote
OBSERVED_PINS = {
    "fig6_observed.sha256": ["fig6", "--trace", "t.json",
                             "--metrics", "m.json"],
    "powercap_observed.sha256": ["powercap", "--telemetry", "tele",
                                 "--report", "--flight", "fl"],
    "sec63_observed.sha256": ["sec63", "--trace", "t.json",
                              "--telemetry", "tele"],
}


@pytest.mark.parametrize("pin", sorted(OBSERVED_PINS))
def test_an_observed_run_writes_its_pinned_bytes(pin, tmp_path, capsys,
                                                  monkeypatch):
    """stdout and every file an observed figure run writes (trace,
    metrics, telemetry bundle) hash to the committed digests."""
    monkeypatch.chdir(tmp_path)
    assert main(OBSERVED_PINS[pin]) == 0
    written = _sha256_tree(tmp_path)
    written["stdout"] = hashlib.sha256(
        capsys.readouterr().out.encode("utf-8")).hexdigest()
    pinned = read_pins(GOLDEN_DIR / pin)
    assert sorted(written) == sorted(pinned)
    changed = sorted(name for name in pinned if written[name] != pinned[name])
    assert changed == [], "output differs from {}: {}".format(pin, changed)


def test_report_implies_telemetry(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sec63", "--report"]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out
    assert (tmp_path / "telemetry" / "metrics.om").exists()
    assert (tmp_path / "telemetry" / "report.json").exists()


def test_trace_with_telemetry_writes_the_bundles_trace(tmp_path, capsys,
                                                      monkeypatch):
    """``--trace PATH --telemetry`` closes the run out before its first
    export, so PATH carries the at-end alert instants too: the same bytes
    as the bundle's ``trace.json``, and the ``trace:`` line counts them."""
    monkeypatch.chdir(tmp_path)
    assert main(["sec63", "--trace", "t.json", "--telemetry", "tele"]) == 0
    out = capsys.readouterr().out
    trace = (tmp_path / "t.json").read_bytes()
    assert trace == (tmp_path / "tele" / "trace.json").read_bytes()
    events = json.loads(trace)["traceEvents"]
    assert any(event.get("cat") == "alert" for event in events)
    assert "trace: {} events from 1 sessions -> t.json\n".format(
        len(events)) in out


def test_profile_appends_a_cprofile_table_to_the_unchanged_report(
        capsys, monkeypatch):
    """``--profile N`` runs the subcommand under cProfile and arms no obs
    session: stdout is the golden report byte for byte, then one line of
    GC time (collections per generation, total seconds, objects freed)
    counted by a ``gc.callbacks`` hook that lives only for the profiled
    call, then
    pstats' N functions with the most self time."""
    from repro.obs.session import Obs

    installed = []
    install = Obs.install
    monkeypatch.setattr(
        Obs, "install", lambda obs: installed.append(obs) or install(obs))
    callbacks = list(gc.callbacks)
    assert main(["fig7", "--profile", "5"]) == 0
    assert gc.callbacks == callbacks
    assert installed == []
    out = capsys.readouterr().out
    golden = (GOLDEN_DIR / "fig7.txt").read_text()
    assert out.startswith(golden)
    table = out[len(golden):]
    assert re.fullmatch(r"gc: \d+ gen0, \d+ gen1, \d+ gen2 collections, "
                        r"\d+\.\d\d s, \d+ objects freed",
                        table.splitlines()[0])
    assert "Ordered by: internal time" in table
    lines = table.splitlines()
    header = next(i for i, line in enumerate(lines)
                  if line.split()[:2] == ["ncalls", "tottime"])
    rows = [line for line in lines[header + 1:] if line.strip()]
    assert len(rows) == 5
    tottimes = [float(row.split()[1]) for row in rows]
    assert tottimes == sorted(tottimes, reverse=True)
    assert any("repro/" in row for row in rows)


if __name__ == "__main__":
    for key in GOLDEN_FAST:
        print("{}  {}".format(result_digest(golden_result(key)), key))
