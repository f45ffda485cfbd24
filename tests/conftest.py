"""Shared pytest/hypothesis configuration."""

import pytest
from hypothesis import HealthCheck, settings

from repro.graph import index as index_module
from repro.graph import overlay as overlay_module

settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def fold_at(monkeypatch):
    """Set the overlay fold threshold (secondary indexes and edge ids)
    for one test."""

    def apply(threshold):
        monkeypatch.setattr(overlay_module, "FOLD_THRESHOLD", threshold)

    return apply


@pytest.fixture
def vector_defaults(monkeypatch):
    """Set the vector index's default probe width and training floor
    (``DEFAULT_NPROBE`` / ``DEFAULT_TRAIN_MIN``) for one test."""

    def apply(nprobe=None, train_min=None):
        if nprobe is not None:
            monkeypatch.setattr(index_module, "DEFAULT_NPROBE", nprobe)
        if train_min is not None:
            monkeypatch.setattr(index_module, "DEFAULT_TRAIN_MIN", train_min)

    return apply
