"""Tests of the benchmark itself; run explicitly (tier-1 ``testpaths`` stays
``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py
"""

from __future__ import annotations

import collections
import importlib
import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from perfbench import metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "pins.json").read_text())


def run_smoke(workload, tmp_path, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0", "--out", str(tmp_path), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    line = json.loads(proc.stdout.splitlines()[-1])
    docs = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
    return proc, line, docs[0]


def test_manifest_matches_metrics_module():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["bound"]) for m in MANIFEST["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert all(m["better"] == "lower" for m in MANIFEST["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] \
        == metrics.per_layer()
    assert MANIFEST["paths"] == ["benchmarks/perf"]


def test_names_and_counts_within_limits():
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    names += [name for p in PINS.values() for name, _kind in p["ops"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert len(MANIFEST["end_to_end"]) <= 16
    assert len(MANIFEST["per_layer"]) <= 128
    assert max(m["bound"] for m in MANIFEST["end_to_end"]) <= 0.25
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_pinned_script_is_the_script(workload, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    mod = importlib.import_module(f"perfbench.workloads.{workload}")
    script = mod.script(mod.fixtures(0, False, str(tmp_path)))
    ops = [[op.name, op.kind] for op in script.ops]
    assert ops == PINS[workload]["ops"]
    timed = [kind for _name, kind in ops if kind != metrics.INVARIANT_KIND]
    assert len(timed) >= 50
    assert set(timed) <= set(metrics.KINDS)
    pinned = {op.name for op in script.ops if op.pinned}
    assert pinned == set(PINS[workload]["digests"])


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload, tmp_path):
    proc, line, doc = run_smoke(workload, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST["end_to_end"]]
    for m in MANIFEST["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$",
                         proc.stdout, re.M), m["name"]
    assert re.search(r"^\s+fail_frac\s+0\.0+ ratio", proc.stdout, re.M)
    per_kind = collections.Counter(kind for _name, kind in doc["script"])
    assert max(per_kind.values()) <= 2, per_kind
    assert {"git_sha", "python", "numpy", "nproc", "blas_threads"} \
        <= set(doc["env"])


def test_traced_smoke_prints_every_per_layer_metric(tmp_path):
    proc, line, doc = run_smoke("tune_replay", tmp_path, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST["per_layer"]]
    for m in MANIFEST["per_layer"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$",
                         proc.stdout, re.M), m["name"]
    layers = [m["name"] for m in MANIFEST["per_layer"]
              if m["name"].endswith(".self_s")]
    assert len(layers) == 19
    assert line["metrics"]["bench.trace_overhead"]["value"] > 0
    assert line["metrics"]["sim.replay.served_frac"]["value"] > 0
    spans = doc["spans"]
    assert len({s["run"] for s in spans}) == 1
    assert [s["kind"] for s in spans[:2]] == ["run", "workload"]
    assert all(s["end"] >= s["start"] for s in spans)
    assert all(s["parent"] == 1 for s in spans[2:])


def test_corrupted_reference_fails_ops(tmp_path):
    proc, line, _doc = run_smoke("real_traced", tmp_path, "--corrupt")
    assert proc.returncode == 1
    assert not line["correct"] and line["failed"] > 0
    frac = re.search(r"^\s+fail_frac\s+(\S+) ratio", proc.stdout, re.M)
    assert float(frac.group(1)) > 0


def test_refuses_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    import shutil

    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "paper_tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]
    assert compare.verdict(base, base, 0.10) == "unchanged"
    assert compare.verdict(base, [v * 0.8 for v in base], 0.10) == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.10) == "REGRESSED"
    assert compare.verdict(base, [v * 1.05 for v in base], 0.10) == "unchanged"
    noisy = [8.0, 12.0, 9.0, 11.5, 8.5, 12.5, 10.0, 7.5, 13.0, 10.5]
    assert compare.verdict(base, noisy, 0.10) == "unresolved"
    # a small, consistent win inside the noise floor is not an improvement
    assert compare.verdict(noisy, [v - 0.01 for v in noisy], 0.10) == "unresolved"
