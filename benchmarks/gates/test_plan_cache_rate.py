"""The collective plan cache pays off on a real sweep."""

from __future__ import annotations

from repro.bench.harness import run_experiment


def test_table2_quick_hit_rate_at_least_90_percent():
    """table2 (the optimized kernel over N_DUP) is the cache's workload:
    many communicators, repeated collectives and two quick iterations, so
    cross-iteration reuse shows up."""
    pc = run_experiment("table2", quick=True).sim_stats["plan_cache"]
    assert pc["hit_rate"] >= 0.90, pc
