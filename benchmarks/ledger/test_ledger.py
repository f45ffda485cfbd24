"""Smoke test of the ledger benchmark (not collected by tier-1: `testpaths = tests`).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_smoke_reports_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    run = [sys.executable, str(HERE / "run.py")]
    subprocess.run(run + ["--smoke", "--seed", "3", "--out", str(out)], check=True, timeout=120)
    ledger = json.loads(out.read_text())
    assert ledger["comparable"] is False
    assert sorted(ledger["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for name, result in ledger["workloads"].items():
        assert result["failed_share"] == 0, name
        for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for spec in SPEC[section]:
                entry = result[key][spec["name"]]
                assert entry["unit"] == spec["unit"]
                assert math.isfinite(entry["value"]), (name, spec["name"])
    # a smoke run is never a baseline
    assert subprocess.run(run + ["compare", str(out), str(out)]).returncode == 2
