"""Shared fixtures for the pytest-benchmark experiment suite.

Scales are deliberately modest so ``pytest benchmarks/ --benchmark-only``
finishes in minutes; set ``REPRO_BENCH_SCALE`` (Graph500 scale, default 12)
to grow them.  The paper's k-hop timings (1-hop and 6-hop) are the
ledger's ``khop1`` and ``khop_deep`` workloads (``benchmarks/ledger``).
"""

import os

import pytest

from repro.bench.khop import pick_seeds
from repro.datasets import graph500_edges

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "12"))


@pytest.fixture(scope="session")
def graph500():
    src, dst, n = graph500_edges(SCALE, 16, seed=1)
    return src, dst, n


@pytest.fixture(scope="session")
def seeds_graph500(graph500):
    src, _, n = graph500
    return pick_seeds(src, n, 10, seed=42)
