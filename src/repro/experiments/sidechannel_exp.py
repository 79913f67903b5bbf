"""Section 2.5: the GPU power side channel, with and without psbox."""

from dataclasses import dataclass

from repro.sidechannel.attack import WebsiteFingerprinter


@dataclass
class SidechannelResult:
    without_psbox: object      # AttackResult
    with_psbox: object         # AttackResult


def run_sidechannel(sites=None, trials_per_site=3, seed=1000):
    """Run the fingerprinting campaign in both worlds."""
    fingerprinter = WebsiteFingerprinter(sites=sites).train()
    without = fingerprinter.run(trials_per_site=trials_per_site,
                                use_psbox=False, seed=seed)
    with_box = fingerprinter.run(trials_per_site=trials_per_site,
                                 use_psbox=True, seed=seed)
    return SidechannelResult(without_psbox=without, with_psbox=with_box)


def result(args=None):
    return run_sidechannel()


def render(result):
    return ("Sec 2.5 — attack success {:.0%} ({:.1f}x random) without "
            "psbox, {:.0%} with\n").format(
                result.without_psbox.success_rate,
                result.without_psbox.advantage,
                result.with_psbox.success_rate)
