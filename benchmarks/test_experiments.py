"""Every registered experiment, regenerated at paper scale.

One pytest-benchmark case per :data:`repro.bench.harness.EXPERIMENTS`
entry: it reruns the experiment, asserts the module's qualitative
reproduction targets (its ``check``) and writes the rendered table to
``benchmarks/results/<name>.txt``, which EXPERIMENTS.md quotes::

    PYTHONPATH=src python -m pytest benchmarks/test_experiments.py
    git diff --exit-code -- benchmarks/results   # renders are fresh
"""

import pytest
from conftest import run_paper_experiment

from repro.bench.harness import EXPERIMENTS


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(benchmark, name):
    run_paper_experiment(benchmark, name)
