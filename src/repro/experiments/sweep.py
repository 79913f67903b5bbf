"""Parallel sweep over the paper's figure/section experiments.

``python -m repro.experiments sweep --jobs N`` runs every figure and
section experiment — plus a powercap cap-fraction sweep — as independent
:mod:`repro.par` cells, inline or on the spawn pool.  Each cell returns
the text its subcommand prints (its driver's ``render(result())``); the
merge re-emits the texts in work-list order, so ``--jobs 8`` output is
byte-identical to ``--jobs 1`` (which runs the same cells in-process).

Cells are addressed by name: the plain experiment subcommands (``fig3`` ..
``sidechannel``) and ``powercap@<fraction>`` for the cap sweep.  With
``--cache DIR`` a finished sweep replays from the result cache instantly.
"""

from dataclasses import dataclass, field

from repro.experiments import driver
from repro.par import ParallelRunner, ResultCache, work_list

#: the dotted entry point spawn-started workers import
CELL_RUNNER = "repro.experiments.sweep:run_sweep_cell"

#: powercap cap fractions swept (70% is the paper-extension default)
CAP_FRACTIONS = (0.60, 0.70, 0.80)

#: cells in print order; the figure experiments first, then the cap sweep
FIG_CELLS = ("fig3", "fig6", "fig7", "fig8", "fig9",
             "sec62", "sec63", "sidechannel")


def cell_names():
    return list(FIG_CELLS) + [
        "powercap@{:.2f}".format(fraction) for fraction in CAP_FRACTIONS
    ]


def _powercap_line(fraction):
    from repro.experiments.powercap_exp import run_powercap

    result = run_powercap(cap_fraction=fraction)
    return ("cap {:>3.0%} of peak: uncapped {:.2f} W  cap {:.2f} W  "
            "steady {:.2f} W  compliance {:+.1f}%  throttle/relax {}\n"
            .format(fraction, result.uncapped_w, result.cap_w,
                    result.steady_w, result.compliance_pct,
                    result.throttle_actions))


def run_sweep_cell(seed, config):
    """Spawn-safe cell runner: one experiment, rendered as text."""
    del seed    # sweep cells carry their seeds internally
    name = config["cell"]
    if name.startswith("powercap@"):
        text = _powercap_line(float(name.split("@", 1)[1]))
    else:
        module = driver(name)
        text = module.render(module.result())
    return {"cell": name, "text": text}


def sweep_items(names=None):
    """The sweep's work-list; unknown cell names are a ValueError here,
    before anything reaches a worker (where a typo — or ``"sweep"`` itself,
    which would recurse — would surface as an opaque CellError)."""
    names = cell_names() if names is None else list(names)
    unknown = sorted(set(names) - set(cell_names()))
    if unknown:
        raise ValueError("unknown sweep cells: {} (available: {})".format(
            ", ".join(unknown), ", ".join(cell_names())))
    return work_list("sweep", CELL_RUNNER,
                     [(0, {"cell": name}) for name in names])


@dataclass
class SweepResult:
    payloads: list      # {"cell": name, "text": rendered} in work-list order
    #: the runner's RunStats: wall times, so not part of the result's value
    par: object = field(default=None, compare=False)


def result(args):
    """Every cell, or the ``--only`` subset, over ``--jobs`` workers."""
    try:
        items = sweep_items(args.only.split(",") if args.only else None)
    except ValueError as exc:
        # unknown --only cells: a clean CLI error, not a CellError from
        # deep inside a worker
        raise SystemExit("error: {}".format(exc))
    runner = ParallelRunner(
        jobs=args.jobs, cache=ResultCache(args.cache) if args.cache else None)
    return SweepResult(runner.run(items), par=runner.stats)


def render(result):
    return "".join("== {} ==\n{}".format(payload["cell"], payload["text"])
                   for payload in result.payloads)
