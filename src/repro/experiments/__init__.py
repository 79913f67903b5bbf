"""Experiment drivers, one module per ``python -m repro.experiments``
subcommand (DESIGN.md maps them to the paper).

A driver's ``result(args)`` computes its subcommand from the CLI's parsed
arguments (the figure drivers take none), and ``render(result)`` returns
the text the CLI prints for it.
"""

import importlib

#: subcommand -> the module that computes and renders it
DRIVERS = {
    "cluster": "repro.experiments.cluster_exp",
    "faults": "repro.experiments.faults_exp",
    "fig3": "repro.experiments.fig3",
    "fig6": "repro.experiments.fig6",
    "fig7": "repro.experiments.fig7",
    "fig8": "repro.experiments.fig8",
    "fig9": "repro.experiments.fig9",
    "powercap": "repro.experiments.powercap_exp",
    "sec62": "repro.experiments.sec62",
    "sec63": "repro.experiments.sec63",
    "sidechannel": "repro.experiments.sidechannel_exp",
    "sweep": "repro.experiments.sweep",
}


def driver(name):
    """The driver module of subcommand ``name``, imported on first use."""
    return importlib.import_module(DRIVERS[name])
