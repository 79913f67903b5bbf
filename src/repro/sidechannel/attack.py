"""Website fingerprinting through GPU power (§2.5), with and without psbox.

The victim browser opens one of the ten synthetic websites; the attacker
app executes a light GPU camouflage workload while observing power.  In the
state-of-the-art world the attacker's observation is its *accounted power
share* (usage-proportional per-sample accounting) — which, thanks to power
entanglement, carries the victim's workload signature.  Under psbox, the
attacker may only observe power through its own sandbox, which insulates
the victim's impacts and collapses the attack to random guessing.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.accounting import PerSampleUsageAccounting
from repro.apps.base import App
from repro.apps.websites import WEBSITES, browse_website
from repro.hw.platform import Platform
from repro.kernel.actions import Sleep, SubmitAccel
from repro.kernel.kernel import Kernel
from repro.obs import runtime as obs_runtime
from repro.sidechannel.dtw import dtw_matrix
from repro.sim.clock import MSEC, from_msec, from_usec


@dataclass
class AttackResult:
    """Outcome of a fingerprinting campaign."""

    trials: int
    correct: int
    n_sites: int
    confusion: dict = field(default_factory=dict)

    @property
    def success_rate(self):
        return self.correct / self.trials if self.trials else 0.0

    @property
    def random_rate(self):
        return 1.0 / self.n_sites if self.n_sites else 0.0

    @property
    def advantage(self):
        """Success as a multiple of random guessing (paper: 6x)."""
        return self.success_rate / self.random_rate if self.n_sites else 0.0


def _znorm(values):
    arr = np.asarray(values, dtype=np.float64)
    std = arr.std()
    if std < 1e-12:
        return arr - arr.mean()
    return (arr - arr.mean()) / std


def _camouflage(app):
    """The attacker's light GPU workload: tiny frequent draws.

    Frequent submissions keep the attacker co-resident on the GPU most of
    the time, so its accounted share samples the victim's entangled power
    densely."""
    rng = app.kernel.sim.rng.stream("attacker.{}".format(app.id))

    def behavior():
        while True:
            yield SubmitAccel("gpu", "camo", 0.10e6, 0.10, wait=True)
            yield Sleep(from_usec(int(rng.uniform(250, 550))))

    return behavior()


def _attacker_postprocess(watts):
    """Attacker-side cleanup: fill unobserved (zero-share) bins by linear
    interpolation, then smooth with a short moving average."""
    arr = np.asarray(watts, dtype=np.float64).copy()
    nonzero = np.flatnonzero(arr > 1e-9)
    if len(nonzero) >= 2:
        idx = np.arange(len(arr))
        arr = np.interp(idx, nonzero, arr[nonzero])
    return _smooth(arr)


def _smooth(arr, k=3):
    if len(arr) < k:
        return arr
    kernel = np.ones(k) / k
    return np.convolve(arr, kernel, mode="same")


class WebsiteFingerprinter:
    """Train-and-infer website fingerprinting over GPU power traces."""

    def __init__(self, sites=None, sample_dt=2 * MSEC,
                 trace_duration=from_msec(650), dtw_window=30):
        self.sites = tuple(sites) if sites else tuple(WEBSITES)
        self.sample_dt = sample_dt
        self.trace_duration = trace_duration
        self.dtw_window = dtw_window
        self.templates = {}

    # -- training -----------------------------------------------------------------

    def train(self, seed=100):
        """Record one labelled power trace per site.

        The victim browser runs "alone" (no third apps); the attacker is of
        course present, observing through the same pipeline it will attack
        with — so templates and attack traces share structure.
        """
        for offset, site in enumerate(self.sites):
            observed = self.observe(site, seed + offset, use_psbox=False)
            self.templates[site] = _znorm(observed)
        return self

    # -- one attack trial ---------------------------------------------------------------

    def observe(self, site, seed, use_psbox):
        """Co-run victim + attacker; return the attacker's observed trace."""
        platform = Platform.full(seed=seed)
        kernel = Kernel(platform)
        obs_runtime.install(platform.sim, kernel=kernel)
        attacker = App(kernel, "attacker")
        attacker.spawn(_camouflage(attacker), name="attacker.camo")
        psbox = None
        if use_psbox:
            psbox = attacker.create_psbox(("gpu",))
            psbox.enter()
        victim = browse_website(kernel, site)
        platform.sim.run(until=self.trace_duration)
        if use_psbox:
            _times, watts = psbox.sample("gpu", 0, self.trace_duration,
                                         self.sample_dt)
        else:
            accounting = PerSampleUsageAccounting(platform, "gpu",
                                                  dt=self.sample_dt)
            _times, shares = accounting.shares(
                [attacker.id, victim.id], 0, self.trace_duration
            )
            watts = shares[attacker.id]
        kernel.shutdown()
        return _attacker_postprocess(watts)

    def classify(self, traces):
        """1-NN DTW labels for equal-length observed traces, in order.

        Each trace is z-normalised, then one :func:`dtw_matrix` call scores
        every (trace, template) pair against the templates in training
        order."""
        if not self.templates:
            raise RuntimeError("train() first")
        queries = [_znorm(trace) for trace in traces]
        if not queries:
            return []
        sites = list(self.templates)
        costs = dtw_matrix(queries, np.stack(list(self.templates.values())),
                           window=self.dtw_window)
        # argmin picks the first minimum: ties go to the first-trained site
        return [sites[k] for k in costs.argmin(axis=1)]

    def infer(self, observed):
        """1-NN DTW classification against the trained templates."""
        return self.classify([observed])[0]

    # -- full campaign -----------------------------------------------------------------------

    def run(self, trials_per_site=3, use_psbox=False, seed=1000):
        """Attack every site ``trials_per_site`` times; tally successes.

        Every trial is observed first, in (site, trial) order, then the
        whole campaign is classified in one batch."""
        if not self.templates:
            self.train()
        truth = []
        observed = []
        for site_idx, site in enumerate(self.sites):
            for trial in range(trials_per_site):
                trial_seed = seed + 97 * site_idx + trial
                truth.append(site)
                observed.append(self.observe(site, trial_seed, use_psbox))
        confusion = {}
        correct = 0
        for site, predicted in zip(truth, self.classify(observed)):
            confusion[(site, predicted)] = (
                confusion.get((site, predicted), 0) + 1
            )
            correct += predicted == site
        return AttackResult(trials=len(truth), correct=correct,
                            n_sites=len(self.sites), confusion=confusion)
