"""Experiment registry and runner.

Every experiment module in :mod:`repro.bench.experiments` exposes

``run(quick: bool = False) -> ExperimentOutput``
    Execute the experiment (scaled down when ``quick``) and return the
    rendered tables plus a dict of raw values.

``check(output: ExperimentOutput) -> None``
    Assert the *qualitative* reproduction targets listed in DESIGN.md
    (who wins, rough factors, monotonicity) — the benchmark tests call it.

Sweep-style experiments may additionally expose the *grid protocol*:

``grid(quick: bool = False) -> list``
    The sweep's grid points, in output order.

``run_point(point, quick: bool = False) -> result``
    Run one grid point; the result must be picklable.

``assemble(results: list, quick: bool = False) -> ExperimentOutput``
    Build the experiment output from the per-point results (same order as
    ``grid()``).

When the protocol is present, :func:`run_experiment` drives the sweep
itself — serially, or across worker processes with ``jobs > 1`` — with
identical per-point isolation in both modes (simulator counters reset,
plan cache cleared, ``numpy.random`` reseeded from a stable hash of the
point index), so ``--jobs N`` output is byte-identical to the serial run.
"""

from __future__ import annotations

import importlib
import zlib
from dataclasses import dataclass, field

from repro.util import Table

#: experiment id -> (module name, one-line description)
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "alg12": ("alg12_matvec", "Algorithms 1-2: the didactic overlapped matvec"),
    "fig3": ("fig3_p2p_bandwidth", "P2P bandwidth vs message size for PPN=1,2,4,8"),
    "secva": ("secva_model", "alpha-beta model vs simulated baseline time (§V-A)"),
    "fig5": ("fig5_collective_bw", "Bcast/Reduce bandwidth: blocking vs both overlaps"),
    "fig6": ("fig6_time_diagram", "Posting/wait time diagram for 8 MB collectives"),
    "table1": ("table1_algorithms", "SymmSquareCube Alg. 3/4/5 performance"),
    "table2": ("table2_ndup", "Optimized SymmSquareCube vs N_DUP"),
    "table3": ("table3_ppn", "SymmSquareCube vs PPN with N_DUP=1 and 4"),
    "table4": ("table4_comm_volume", "Inter-node volume/bandwidth/time vs PPN"),
    "table5": ("table5_25d", "2.5D SymmSquareCube configurations"),
    "table6": (
        "table6_summa",
        "SUMMA family: colors x tile depth x mesh, with autotuned pick",
    ),
    "ext-cg": (
        "ext_cg_solver",
        "extension (§VI): overlapped reductions in conjugate gradient",
    ),
    "ablation-collectives": (
        "ablation_collectives",
        "binomial vs long-message collective algorithms under overlap",
    ),
    "ext-md": (
        "ext_md_forces",
        "extension (§VI): overlapped collectives in particle simulations",
    ),
    "ablation-multithread": (
        "ablation_multithread",
        "multithreaded overlap vs the paper's two techniques (§I)",
    ),
    "ablation-placement": (
        "ablation_placement",
        "rank-to-node placement sensitivity of the optimized kernel",
    ),
    "ablation-network": (
        "ablation_network",
        "sensitivity of the headline speedups to network-model constants",
    ),
    "ablation-faults": (
        "ablation_faults",
        "resilience of the overlap gains under injected fabric faults",
    ),
    "ablation-overlap": (
        "ablation_overlap",
        "measured comm-comm overlap fraction: plain vs pipelined SUMMA",
    ),
    "ablation-verify": (
        "ablation_verify",
        "runtime-verifier overhead: simulated time unchanged, wall cost only",
    ),
    "ablation-autotune": (
        "ablation_autotune",
        "repro.tune autotuned configuration vs the paper defaults",
    ),
    "ablation-tune-service": (
        "ablation_tune_service",
        "tuning service under load: coalescing, warm cache, interpolation",
    ),
}


@dataclass
class ExperimentOutput:
    """Tables + raw values produced by one experiment run.

    ``sim_stats`` carries the simulator-cost counters accumulated while the
    experiment ran (events processed/cancelled, peak heap size, heap
    compactions) — kept separate from ``values`` because every experiment's
    ``check()`` treats ``values`` as *its own* result dictionary.
    """

    name: str
    tables: list[Table] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    notes: str = ""
    sim_stats: dict = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"### {self.name}"]
        for t in self.tables:
            parts.append(t.render())
        if self.notes:
            parts.append(self.notes.rstrip() + "\n")
        if self.sim_stats:
            s = self.sim_stats
            parts.append(
                "simulator cost: "
                f"{s.get('events_processed', 0):,} events processed, "
                f"{s.get('events_cancelled', 0):,} cancelled, "
                f"peak heap {s.get('peak_heap_size', 0):,}, "
                f"{s.get('heap_compactions', 0)} compactions\n"
            )
            pc = s.get("plan_cache")
            if pc and (pc.get("hits", 0) or pc.get("misses", 0)):
                parts.append(
                    "plan cache: "
                    f"{pc.get('hits', 0):,} hits, "
                    f"{pc.get('misses', 0):,} misses, "
                    f"{pc.get('evictions', 0)} evictions, "
                    f"hit rate {pc.get('hit_rate', 0.0):.1%}\n"
                )
            ov = s.get("overlap")
            if ov:
                parts.append(
                    "\n".join(
                        f"overlap[{variant}]: "
                        f"comm-comm {m['comm_comm_overlap_fraction']:.3f}, "
                        f"comm-compute "
                        f"{m['comm_compute_overlap_fraction']:.3f}, "
                        f"serialization {m['serialization_score']:.2f}"
                        for variant, m in ov.items()
                    )
                    + "\n"
                )
            fab = s.get("fabric")
            # Only worth a line when traffic actually used extra channels;
            # single-channel experiments keep their report bytes unchanged.
            if fab and any(fab.get("channel_messages", [0])[1:]):
                msgs = fab["channel_messages"]
                byts = fab["channel_bytes"]
                used = max(i for i, m in enumerate(msgs) if m) + 1
                parts.append(
                    "fabric channels: "
                    + ", ".join(
                        f"ch{i} {msgs[i]:,} msgs / {byts[i]:,.0f} B"
                        for i in range(used)
                    )
                    + "\n"
                )
        return "\n".join(parts)


def load_experiment(name: str):
    """Import the experiment module registered under ``name``."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    module_name, _desc = EXPERIMENTS[name]
    return importlib.import_module(f"repro.bench.experiments.{module_name}")


def has_grid_protocol(mod) -> bool:
    """True when the module exposes ``grid``/``run_point``/``assemble``."""
    return all(hasattr(mod, a) for a in ("grid", "run_point", "assemble"))


def point_seed(name: str, idx: int) -> int:
    """Stable per-point RNG seed (same in serial and parallel sweeps)."""
    return zlib.crc32(f"{name}:{idx}".encode()) & 0x7FFFFFFF


def _isolate_point(name: str, idx: int) -> None:
    """Reset all cross-point process state before running one grid point."""
    import numpy as np

    from repro.mpi.collectives.plan import shared_plans
    from repro.netmodel.fabric import Fabric
    from repro.sim.engine import Engine

    shared_plans.clear()
    shared_plans.reset()
    Engine.reset_aggregate_stats()
    Fabric.reset_aggregate_stats()
    np.random.seed(point_seed(name, idx))


def _run_grid_point(payload):
    """Worker entry point (top-level so spawn contexts can pickle it)."""
    name, idx, point, quick = payload
    from repro.mpi.collectives.plan import shared_plans
    from repro.netmodel.fabric import Fabric
    from repro.sim.engine import Engine

    mod = load_experiment(name)
    _isolate_point(name, idx)
    result = mod.run_point(point, quick=quick)
    return (idx, result, Engine.aggregate_stats(), shared_plans.stats(),
            Fabric.aggregate_stats())


def _merge_point_stats(engine_stats: list[dict], plan_stats: list[dict],
                       fabric_stats: list[dict] | None = None) -> dict:
    """Combine per-point counters the way one long-lived process would.

    Engine events/cancellations/compactions, plan-cache counters and
    per-channel fabric traffic are extensive (summed; channel counters
    element-wise); peak heap size is a maximum.  The merge is a pure
    function of the ordered per-point stats, so serial and ``--jobs N``
    sweeps produce identical ``sim_stats``.
    """
    merged = {
        "events_processed": sum(s.get("events_processed", 0) for s in engine_stats),
        "events_cancelled": sum(s.get("events_cancelled", 0) for s in engine_stats),
        "peak_heap_size": max(
            (s.get("peak_heap_size", 0) for s in engine_stats), default=0
        ),
        "heap_compactions": sum(s.get("heap_compactions", 0) for s in engine_stats),
    }
    hits = sum(p.get("hits", 0) for p in plan_stats)
    misses = sum(p.get("misses", 0) for p in plan_stats)
    lookups = hits + misses
    merged["plan_cache"] = {
        "hits": hits,
        "misses": misses,
        "evictions": sum(p.get("evictions", 0) for p in plan_stats),
        "entries": sum(p.get("entries", 0) for p in plan_stats),
        "hit_rate": (hits / lookups) if lookups else 0.0,
    }
    if fabric_stats:
        from repro.netmodel.params import MAX_CHANNELS

        byts = [0.0] * MAX_CHANNELS
        msgs = [0] * MAX_CHANNELS
        for f in fabric_stats:
            for i, b in enumerate(f.get("channel_bytes", ())):
                byts[i] += b
            for i, m in enumerate(f.get("channel_messages", ())):
                msgs[i] += m
        merged["fabric"] = {"channel_bytes": byts, "channel_messages": msgs}
    return merged


def run_experiment(name: str, quick: bool = False, jobs: int = 1) -> ExperimentOutput:
    """Run one experiment end to end and return its output.

    Simulator-cost counters (events processed/cancelled, peak heap size,
    compactions) and plan-cache hit/miss counters are aggregated across
    every engine the experiment creates and attached as
    ``output.sim_stats`` so reports show simulator cost alongside simulated
    time.

    ``jobs > 1`` shards grid-protocol experiments across a spawn-context
    process pool; experiments without the protocol ignore ``jobs``.  Output
    (tables, values, and merged ``sim_stats``) is byte-identical to the
    serial run: points keep grid order and both modes apply the same
    per-point isolation.
    """
    from repro.mpi.collectives.plan import shared_plans
    from repro.netmodel.fabric import Fabric
    from repro.sim.engine import Engine

    mod = load_experiment(name)
    if has_grid_protocol(mod):
        points = list(mod.grid(quick=quick))
        payloads = [(name, i, pt, quick) for i, pt in enumerate(points)]
        if jobs > 1 and len(points) > 1:
            import multiprocessing

            ctx = multiprocessing.get_context("spawn")
            with ctx.Pool(min(jobs, len(points))) as pool:
                raw = pool.map(_run_grid_point, payloads)
        else:
            raw = [_run_grid_point(p) for p in payloads]
        raw.sort(key=lambda r: r[0])  # grid order regardless of completion
        out = mod.assemble([r[1] for r in raw], quick=quick)
        # ``assemble`` may surface derived per-run statistics (e.g. the
        # overlap report) via sim_stats; merge the harness counters in
        # without clobbering them.
        extra = out.sim_stats
        out.sim_stats = _merge_point_stats(
            [r[2] for r in raw], [r[3] for r in raw], [r[4] for r in raw]
        )
        if extra:
            out.sim_stats.update(extra)
        return out
    Engine.reset_aggregate_stats()
    Fabric.reset_aggregate_stats()
    shared_plans.clear()
    shared_plans.reset()
    out = mod.run(quick=quick)
    if not out.sim_stats:
        out.sim_stats = Engine.aggregate_stats()
        out.sim_stats["plan_cache"] = shared_plans.stats()
        out.sim_stats["fabric"] = Fabric.aggregate_stats()
    return out
