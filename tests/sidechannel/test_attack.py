"""Scaled-down side-channel attack tests (the full campaign runs in the
benchmark suite)."""

import pytest

from repro.obs.runtime import ObsRun, observe
from repro.sidechannel.attack import AttackResult, WebsiteFingerprinter, _znorm


def test_attack_result_arithmetic():
    result = AttackResult(trials=20, correct=12, n_sites=10)
    assert result.success_rate == pytest.approx(0.6)
    assert result.random_rate == pytest.approx(0.1)
    assert result.advantage == pytest.approx(6.0)


def test_attack_result_empty():
    result = AttackResult(trials=0, correct=0, n_sites=0)
    assert result.success_rate == 0.0
    assert result.advantage == 0.0


def test_znorm_properties():
    arr = _znorm([1.0, 2.0, 3.0])
    assert arr.mean() == pytest.approx(0.0, abs=1e-12)
    assert arr.std() == pytest.approx(1.0)
    flat = _znorm([2.0, 2.0])
    assert (flat == 0).all()


@pytest.fixture(scope="module")
def small_fingerprinter():
    sites = ("google", "youtube", "facebook", "baidu")
    return WebsiteFingerprinter(sites=sites).train(seed=100)


def test_training_builds_one_template_per_site(small_fingerprinter):
    assert set(small_fingerprinter.templates) == {
        "google", "youtube", "facebook", "baidu"
    }


def test_attack_beats_random_without_psbox(small_fingerprinter):
    result = small_fingerprinter.run(trials_per_site=2, use_psbox=False,
                                     seed=500)
    assert result.success_rate >= 2 * result.random_rate


def test_psbox_degrades_the_attack(small_fingerprinter):
    open_world = small_fingerprinter.run(trials_per_site=2, use_psbox=False,
                                         seed=500)
    sandboxed = small_fingerprinter.run(trials_per_site=2, use_psbox=True,
                                        seed=500)
    assert sandboxed.success_rate < open_world.success_rate


def test_infer_requires_training():
    fp = WebsiteFingerprinter(sites=("google",))
    with pytest.raises(RuntimeError):
        fp.infer([0.0, 1.0])


def test_infer_ties_go_to_the_first_trained_site():
    fp = WebsiteFingerprinter(sites=("google", "baidu"))
    same = _znorm([0.0, 1.0, 0.0])
    for first, second in (("baidu", "google"), ("google", "baidu")):
        fp.templates = {first: same, second: same}
        assert fp.infer([0.0, 1.0, 0.0]) == first


def test_every_boot_joins_the_observed_run_unperturbed():
    """Each simulator the attack boots gets one session of the current
    run (kernel bound, hooks live; the session keeps the kernel's log
    stats past its shutdown), and observing moves no prediction."""
    def campaign():
        fp = WebsiteFingerprinter(sites=("google", "youtube")).train(seed=100)
        return [fp.run(trials_per_site=1, use_psbox=use_psbox, seed=500)
                for use_psbox in (False, True)]

    bare = campaign()
    with observe(ObsRun()) as run:
        observed = campaign()
    assert len(run.sessions) == 2 + 2 + 2    # templates, then each world
    assert all("gpu.sched" in obs.log_stats() for obs in run.sessions)
    assert all(obs.metrics.counters["gpu.submitted"].value > 0
               for obs in run.sessions)
    assert ([result.confusion for result in observed]
            == [result.confusion for result in bare])
