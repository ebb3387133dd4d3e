"""Shared machinery for the paper-reproduction benchmarks.

``benchmarks/test_experiments.py`` regenerates every table and figure of
the experiment registry, asserts each one's qualitative reproduction
targets, and records the rendered table under ``benchmarks/results/``
(EXPERIMENTS.md quotes these).  :func:`run_paper_experiment` is the only
writer of that directory.

The underlying simulations are deterministic, so every benchmark uses a
single pedantic round: the reported time is the wall time of regenerating
the experiment, and the interesting output is the table itself.
"""

from __future__ import annotations

import pathlib

from repro.bench.harness import load_experiment, run_experiment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_paper_experiment(benchmark, name: str):
    """Run experiment ``name`` under pytest-benchmark and verify its targets."""
    out = benchmark.pedantic(run_experiment, args=(name,), rounds=1,
                             iterations=1)
    load_experiment(name).check(out)
    rendered = out.render()
    benchmark.extra_info["experiment"] = name
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(rendered)
    print()
    print(rendered)
    return out
