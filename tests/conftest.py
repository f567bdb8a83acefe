import random

import pytest


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def no_search(monkeypatch):
    """Fail the test if the verifier searches a graph: every search of a run,
    the bound pass's first included, starts with an ``AutContext``."""
    import symlab.verifier as verifier

    def refuse(*args, **kwargs):
        raise AssertionError("searched a graph")

    monkeypatch.setattr(verifier, "AutContext", refuse)
