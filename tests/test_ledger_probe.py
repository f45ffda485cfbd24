"""The ledger's probe mode (``benchmarks/ledger/serve.py --probe``) patches
named callables of this package, grblas entry points with no engine
caller among them.  Deleting or renaming any of them breaks
``run.py --trace 1``; this test fails first."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import importlib.util, sys
sys.path.insert(0, {src!r})
spec = importlib.util.spec_from_file_location("ledger_serve", {serve!r})
serve = importlib.util.module_from_spec(spec)
spec.loader.exec_module(serve)
serve.install_probes()
"""


def test_install_probes_finds_every_callable():
    script = INSTALL.format(src=str(ROOT / "src"), serve=str(ROOT / "benchmarks" / "ledger" / "serve.py"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
