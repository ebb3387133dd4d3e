"""Byte-identity gates: golden traces across interpreter processes, and
every parallel sweep against its serial twin.

Run explicitly (tier-1 ``testpaths`` stays ``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/gates -q
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = ("golden_trace_ssc.json", "golden_trace_ssc_faults.json")


def _run(args, **env):
    """Run ``python args...`` from the repo root; its stdout."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                          env={**os.environ, **env}, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_golden_traces_identical_across_hash_seeds(tmp_path):
    """Regenerate the healthy and chaos golden traces in two fresh
    processes with different hash seeds: both dumps and the checked-in
    fixtures agree byte for byte."""
    dumps = []
    for seed in ("1", "2"):
        out = tmp_path / f"run{seed}"
        _run(["tests/test_golden_trace.py", "--dump", str(out)],
             PYTHONHASHSEED=seed)
        dumps.append(out)
    for name in GOLDEN:
        want = (ROOT / "tests" / "data" / name).read_bytes()
        assert [(d / name).read_bytes() for d in dumps] == [want, want], name


@pytest.mark.parametrize("name", ["table2", "table6", "ablation-autotune",
                                  "ablation-tune-service"])
def test_jobs2_matches_serial(name):
    """``--jobs 2`` fans grid points out to worker processes; the rendered
    tables, merged simulator counters and check verdict must equal the
    serial run's (only the wall-time line may differ).  ``--check`` runs
    each experiment's own gates: table6's SUMMA ordering and >= 1.5x
    colored-4 win, the autotuner's tuned <= default, and the tuning
    service's one-search-per-signature, zero-simulation warm wave and
    byte-identical db."""
    def table(*extra):
        out = _run(["-m", "repro.bench", name, "--quick", "--check", *extra])
        return [line for line in out.splitlines() if "completed in" not in line]

    serial = table()
    assert serial == table("--jobs", "2")
    assert any("checks PASSED" in line for line in serial)
