"""Shared pytest/hypothesis configuration."""

import pytest
from hypothesis import HealthCheck, settings

from repro.graph import index as index_module

settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def fold_at(monkeypatch):
    """Set the secondary-index overlay fold threshold for one test."""

    def apply(threshold):
        monkeypatch.setattr(index_module, "FOLD_THRESHOLD", threshold)

    return apply
