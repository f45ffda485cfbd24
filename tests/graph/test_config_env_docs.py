"""Env-var drift guard: the ``REPRO_*`` variables the README and the CI
workflow name must be exactly the ones :data:`CONFIG_SPECS` reads, so
deleting a knob cannot leave stale env-var text behind (benchmark-only
``REPRO_BENCH_*`` variables are not config knobs and are ignored)."""

import re
from pathlib import Path

import pytest

from repro.graph.config import CONFIG_SPECS

ROOT = Path(__file__).resolve().parents[2]
ENV_NAME = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
SPEC_ENVS = {spec.env for spec in CONFIG_SPECS if spec.env}


def env_names(relpath):
    names = set(ENV_NAME.findall((ROOT / relpath).read_text()))
    return {n for n in names if not n.startswith("REPRO_BENCH_")}


@pytest.mark.parametrize("relpath", ["README.md", ".github/workflows/ci.yml"])
def test_every_named_env_var_is_a_config_knob(relpath):
    assert env_names(relpath) <= SPEC_ENVS


def test_every_config_env_var_is_documented():
    assert SPEC_ENVS <= env_names("README.md")
