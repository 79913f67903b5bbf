"""The GPU power side channel of §2.5 and its mitigation by psbox.

``dtw`` implements the dynamic-time-warping distance the paper's attacker
uses; ``attack`` implements the website-fingerprinting attacker itself:
train on labelled GPU power traces of a victim browser running alone, then
infer which site a co-running browser visits from the attacker's own power
observation.
"""

from repro.sidechannel.attack import AttackResult, WebsiteFingerprinter
from repro.sidechannel.dtw import dtw_distance, dtw_distances, dtw_matrix

__all__ = ["AttackResult", "WebsiteFingerprinter", "dtw_distance",
           "dtw_distances", "dtw_matrix"]
