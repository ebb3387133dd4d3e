"""Every experiment's quick run passes its own qualitative checks.

Run explicitly (tier-1 ``testpaths`` stays ``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/gates -q
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_all_quick_checks_pass():
    """``python -m repro.bench all --quick --check`` exits 0 (~25 s on a
    2-core box); a failing experiment's reason is in the output."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "all", "--quick", "--check"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    failed = [line for line in proc.stdout.splitlines() if "FAILED" in line]
    assert proc.returncode == 0, (failed, proc.stderr)
