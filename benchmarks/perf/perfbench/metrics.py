"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repo root repeats these tables for the driver;
``test_perf_bench.py`` asserts the two agree.  Later PRs are judged by
these names, so renaming one is a benchmark change, not a refactor.
"""

from __future__ import annotations

WORKLOADS = ("paper_tables", "solver_latency", "tune_replay", "real_traced")

#: (name, unit, bound): every end-to-end metric is lower-is-better.  The
#: bound is the share of the base's median by which the metric may worsen
#: before ``compare.py`` calls it a regression.  Every timing sits at
#: the driver's cap of 0.25: on the 2-core VM the benchmark was sized on,
#: inter-quartile spreads over ten seeds reach 12 % in noisy stretches, and
#: a bound should be three times the spread seen (README.md, "Steadiness").
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("op_p50_ms", "ms", 0.25),
    ("op_p80_ms", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.10),
    ("setup_s", "s", 0.25),
)

#: Reported next to the end-to-end metrics but kept out of ``BENCHMARK.json``
#: (it is 0 on every healthy run, and the driver needs non-zero medians):
#: any increase is a regression.
FAIL_FRAC = ("fail_frac", "ratio")

#: This repo's modules, as the traced run buckets them (see layers.py).
LAYERS = (
    "sim.engine", "sim.process", "sim.replay", "sim.trace", "sim.faults",
    "netmodel.fabric", "netmodel.analytic",
    "mpi.transport", "mpi.comm", "mpi.collectives",
    "dense", "kernels", "apps",
    "tune.search", "tune.service",
    "analysis", "analytics",
    "numpy", "other",
)

#: (name, unit, better): exact counts read from public stat surfaces with
#: tracing off, plus the three machine yardsticks.
COUNTS = (
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.cancelled", "count", "lower"),
    ("sim.engine.peak_heap", "count", "lower"),
    ("sim.engine.compactions", "count", "lower"),
    ("sim.engine.us_per_event", "us", "lower"),
    ("sim.virtual_s", "s", "lower"),
    ("sim.virtual_digest_drift", "count", "lower"),
    ("netmodel.fabric.messages", "count", "lower"),
    ("netmodel.fabric.bytes", "B", "lower"),
    ("netmodel.fabric.lane_messages", "count", "lower"),
    ("mpi.collectives.plan_hits", "count", "higher"),
    ("mpi.collectives.plan_misses", "count", "lower"),
    ("mpi.collectives.plan_hit_rate", "ratio", "higher"),
    ("sim.replay.graph_nodes", "count", "lower"),
    ("sim.replay.graph_flows", "count", "lower"),
    ("sim.replay.attempts", "count", "higher"),
    ("sim.replay.invalid", "count", "lower"),
    ("sim.replay.served_frac", "ratio", "higher"),
    ("tune.search.simulations", "count", "lower"),
    ("tune.search.replays", "count", "higher"),
    ("tune.search.replay_aborts", "count", "higher"),
    ("tune.service.requests", "count", "higher"),
    ("tune.service.hits", "count", "higher"),
    ("tune.service.coalesced", "count", "higher"),
    ("tune.service.searches", "count", "lower"),
    ("tune.service.interpolated", "count", "higher"),
    ("tune.service.graph_loads", "count", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.ref_loop_eps", "1/s", "higher"),
    ("bench.ref_gemm_gflops", "GFlop/s", "higher"),
)

#: Op kinds; kind ``k`` reports its median untraced host seconds as ``k_s``.
KINDS = (
    # paper_tables
    "kernels.run_ssc", "kernels.run_ssc25d", "dense.run_summa",
    # solver_latency
    "apps.run_cg", "apps.run_block_cg", "apps.run_force_step",
    "dense.run_matvec", "mpi.collective_microbench",
    # tune_replay
    "tune.search_cold", "tune.search_retune",
    "tune.search_cold_small", "tune.search_retune_small",
    "sim.replay.record", "sim.replay.replay_grid", "sim.replay.dump_load",
    "analytics.fit",
    "tune.service.warm_batch", "tune.service.coalesce",
    "tune.service.interpolate", "tune.graphstore_io",
    # real_traced
    "kernels.real_ssc", "dense.real_mm", "apps.real_purify", "apps.real_cg",
    "kernels.traced_run", "analytics.overlap_report", "analytics.timeline",
    "kernels.verified_run", "analysis.check_plans", "analysis.lint",
    "kernels.faulted_run",
)

#: Workload-level paper invariants: checked and counted, never timed.
INVARIANT_KIND = "invariant"


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    out.extend(COUNTS)
    out.extend((f"{kind}_s", "s", "lower") for kind in KINDS)
    return out
