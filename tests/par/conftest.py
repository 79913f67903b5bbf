"""Fixtures that pin the runner's execution path for one test.

``ParallelRunner`` picks ``inline`` or ``spawn`` itself, through
:func:`repro.par.executors.choose_backend`; a test that needs a
particular path patches that choice instead of passing a knob.
"""

import pytest

from repro.par import runner as runner_module


@pytest.fixture
def force_backend(monkeypatch):
    """``force_backend("spawn")`` makes every run in the test take that path."""
    def force(backend):
        monkeypatch.setattr(runner_module, "choose_backend",
                            lambda *args, **kwargs: backend)
    return force


@pytest.fixture
def force_spawn(force_backend):
    """Every ``ParallelRunner`` in the test runs its cells on the pool."""
    force_backend("spawn")
