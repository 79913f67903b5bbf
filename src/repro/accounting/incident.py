"""Offline incident-window attribution over exported series.

The live accounting baselines (:class:`~repro.accounting.per_sample
.PerSampleUsageAccounting` and friends) run against a platform's meter and
usage traces.  The explain engine has neither — it holds *exported* series:
a total-power signal and per-entity signals (per-tenant measured watts, or
per-leaf measured watts) read back from a telemetry bundle or a flight
dump.  This module bridges the two: it resamples those point series onto a
uniform bin grid and then runs the very same ``_split`` policies over them,
so an incident report's "who caused this" table uses the paper's
attribution semantics, not an ad-hoc reimplementation.

``attribute_window`` answers: over the incident window, which entities do
the per-sample / even-split / last-trigger policies hold responsible for
the total draw, and for how many joules each?
"""

import numpy as np

from repro.accounting.even_split import EvenSplitAccounting
from repro.accounting.last_trigger import LastTriggerAccounting
from repro.accounting.per_sample import PerSampleUsageAccounting

#: the policies an incident report ranks by (name -> unbound _split).
#: The _split laws are pure functions of (watts, usage, entities) — none
#: touches self — so they run fine over offline arrays with self=None.
POLICIES = {
    "per_sample": PerSampleUsageAccounting._split,
    "even_split": EvenSplitAccounting._split,
    "last_trigger": LastTriggerAccounting._split,
}


def hold_resample(points, grid):
    """Previous-hold values of a ``[(t_ns, value), ...]`` series on ``grid``.

    Before the first sample the value is 0.0 (the series did not exist
    yet); after the last it holds — matching StepTrace semantics for
    sampled signals.
    """
    out = np.zeros(len(grid))
    if not points:
        return out
    times = np.array([t for t, _v in points], dtype=float)
    values = np.array([v for _t, v in points], dtype=float)
    idx = np.searchsorted(times, np.asarray(grid, dtype=float), side="right")
    have = idx > 0
    out[have] = values[idx[have] - 1]
    return out


def attribute_window(total_points, entity_points, t0_ns, t1_ns, n_bins=24):
    """Run every accounting policy over one incident window.

    ``total_points`` is the aggregate-power series (``[(t_ns, w), ...]``);
    ``entity_points`` maps entity name (tenant, leaf) to its own measured
    series.  Returns a dict::

        {"t0_ns": ..., "t1_ns": ..., "bins": n, "dt_ns": ...,
         "policies": {policy: [{"entity", "energy_j", "share"}, ...]}}

    with each policy's entity list ranked by attributed energy (ties
    broken by name, so reports are deterministic).
    """
    t0_ns = int(t0_ns)
    t1_ns = int(t1_ns)
    entities = sorted(entity_points)
    if t1_ns <= t0_ns or n_bins < 1 or not entities:
        return {"t0_ns": t0_ns, "t1_ns": t1_ns, "bins": 0, "dt_ns": 0,
                "policies": {name: [] for name in POLICIES}}
    dt_ns = (t1_ns - t0_ns) / n_bins
    # bin midpoints: a hold-resample at the midpoint is the bin's value
    grid = t0_ns + dt_ns * (np.arange(n_bins) + 0.5)
    watts = hold_resample(total_points, grid)
    usage = {name: hold_resample(entity_points[name], grid)
             for name in entities}
    dt_s = dt_ns / 1e9
    out = {"t0_ns": t0_ns, "t1_ns": t1_ns, "bins": n_bins,
           "dt_ns": int(dt_ns), "policies": {}}
    for policy, split in POLICIES.items():
        shares = split(None, watts, usage, entities)
        total_j = sum(float(np.sum(s)) * dt_s for s in shares.values())
        ranked = []
        for name in entities:
            energy = float(np.sum(shares[name])) * dt_s
            ranked.append({
                "entity": name,
                "energy_j": round(energy, 9),
                "share": round(energy / total_j, 6) if total_j > 0 else 0.0,
            })
        ranked.sort(key=lambda row: (-row["energy_j"], row["entity"]))
        out["policies"][policy] = ranked
    return out


def top_entity(attribution):
    """The top-ranked entity under the per-sample policy, or None (empty
    window)."""
    ranked = attribution["policies"].get("per_sample")
    return ranked[0]["entity"] if ranked else None
