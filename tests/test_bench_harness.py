"""Tests for the experiment registry, runner and CLI."""

import pytest

from repro.bench.cli import main
from repro.bench.harness import (
    EXPERIMENTS,
    ExperimentOutput,
    load_experiment,
    run_experiment,
)
from repro.netmodel.fabric import Fabric
from repro.netmodel.topology import block_placement
from repro.sim.engine import Engine
from repro.util import Table


class TestRegistry:
    def test_all_experiments_importable(self):
        for name in EXPERIMENTS:
            mod = load_experiment(name)
            assert callable(mod.run)
            assert callable(mod.check)

    def test_every_paper_artifact_covered(self):
        for key in ("fig3", "fig5", "fig6", "table1", "table2", "table3",
                    "table4", "table5", "secva"):
            assert key in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            load_experiment("table99")


class TestQuickRuns:
    """Quick-mode runs of the cheap experiments, with their checks."""

    @pytest.mark.parametrize("name", ["fig3", "secva", "table4",
                                      "ablation-network"])
    def test_quick_run_and_render(self, name):
        out = run_experiment(name, quick=True)
        assert isinstance(out, ExperimentOutput)
        assert out.tables and all(isinstance(t, Table) for t in out.tables)
        text = out.render()
        assert name in text
        assert len(text.splitlines()) > 3

    def test_fig6_quick_check_passes(self):
        out = run_experiment("fig6", quick=True)
        load_experiment("fig6").check(out)

    def test_table1_quick(self):
        out = run_experiment("table1", quick=True)
        # Quick mode restricts to 1hsg_70; the speedup band still holds.
        t3, t4, t5 = out.values["1hsg_70"]
        assert t5 > 1.1 * t4 >= 1.1 * 0.98 * t3


class TestExperimentOutput:
    def test_render_includes_notes(self):
        t = Table(["a"])
        t.add_row([1])
        out = ExperimentOutput(name="x", tables=[t], notes="important note")
        assert "important note" in out.render()

    def test_values_dict_roundtrip(self):
        out = ExperimentOutput(name="x", values={"k": 1})
        assert out.values["k"] == 1


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        captured = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in captured

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "table1" in capsys.readouterr().out

    def test_unknown_experiment_error(self, capsys):
        assert main(["not-a-thing"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_quick_with_check(self, capsys):
        rc = main(["secva", "--quick", "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "qualitative checks PASSED" in out

    def test_csv_export(self, tmp_path, capsys):
        rc = main(["secva", "--quick", "--csv", str(tmp_path)])
        assert rc == 0
        files = list(tmp_path.glob("secva_*.csv"))
        assert files
        assert "Quantity" in files[0].read_text()


class TestExtensionExperiments:
    """Quick-mode runs of the extension/ablation experiments."""

    @pytest.mark.parametrize("name", ["alg12", "ext-cg", "ext-md",
                                      "ablation-multithread",
                                      "ablation-verify"])
    def test_quick_run_and_check(self, name):
        out = run_experiment(name, quick=True)
        load_experiment(name).check(out)
        assert out.tables

    def test_registry_complete(self):
        for key in ("alg12", "ext-cg", "ext-md", "ablation-collectives",
                    "ablation-multithread", "ablation-placement",
                    "ablation-network", "ablation-verify"):
            assert key in EXPERIMENTS


def _run_storm(nodes, ppn, wave, waves, nbytes, stagger):
    """Drive one flow storm straight into ``Fabric``; the drained engine.

    ``waves`` rounds of ``wave`` concurrent transfers of ``nbytes`` each,
    every round posted when the previous round's last flow lands, from
    ``stagger`` posting fronts 10 us apart (the N_DUP pipeline's
    overlapping communicators).  No MPI layer: this is the engine + fabric
    core alone.
    """
    eng = Engine()
    fab = Fabric(eng, block_placement(nodes * ppn, ppn))
    ranks = nodes * ppn
    left = [waves]

    def post_wave():
        w = waves - left[0]
        left[0] -= 1
        last = None
        for i in range(wave):
            src = (i + w) % ranks
            last = fab.transfer(src, (src + 1 + i % 7) % ranks, nbytes)
        if left[0] > 0:
            last.add_callback(lambda _e: post_wave())

    for s in range(stagger):
        eng.call_after(s * 1e-5, post_wave)
    eng.run()
    return eng


#: Flow storms shaped like the repo's regimes, with their engine counters
#: ``(events, cancelled, peak heap, compactions)``: Table I (64 nodes,
#: multi-MB rendezvous broadcasts), Table II/III (PPN=4 with shm traffic)
#: and the latency-bound CG solver (small waves).
STORMS = {
    "table1": ((64, 1, 256, 12, 3_822_500, 4), (9499, 12959, 1686, 16)),
    "table2": ((32, 4, 256, 12, 1_000_000, 4), (8025, 11206, 1998, 14)),
    "ext_cg": ((64, 4, 64, 40, 20_000, 2), (4876, 4379, 625, 14)),
}


class TestPerfSimCore:
    """The simulator core's event structure plus the bench CLI's cost
    reporting (wall-clock cost itself is measured by ``benchmarks/perf``)."""

    def test_storms_are_deterministic(self):
        runs = [_run_storm(8, 2, 16, 3, 100_000, 2) for _ in range(2)]
        assert runs[0].events_processed == runs[1].events_processed
        assert runs[0].events_cancelled == runs[1].events_cancelled
        assert runs[0].peak_heap_size == runs[1].peak_heap_size
        assert runs[0].now == runs[1].now
        assert runs[0].events_processed > 0

    @pytest.mark.parametrize("name", sorted(STORMS))
    def test_storm_counters_pinned(self, name):
        shape, counters = STORMS[name]
        eng = _run_storm(*shape)
        assert (eng.events_processed, eng.events_cancelled,
                eng.peak_heap_size, eng.compactions) == counters

    def test_profile_flag(self, capsys):
        rc = main(["secva", "--quick", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cProfile top-20" in out
        assert "cumulative" in out

    def test_sim_stats_attached_and_rendered(self):
        out = run_experiment("secva", quick=True)
        assert out.sim_stats["events_processed"] > 0
        assert "simulator cost:" in out.render()


class TestGridProtocol:
    """The sweep machinery behind ``run_experiment(..., jobs=N)``."""

    def test_protocol_detection(self):
        from repro.bench.harness import has_grid_protocol

        assert has_grid_protocol(load_experiment("table2"))
        assert has_grid_protocol(load_experiment("table1"))
        assert not has_grid_protocol(load_experiment("secva"))

    def test_point_seed_stable_and_distinct(self):
        from repro.bench.harness import point_seed

        assert point_seed("table2", 0) == point_seed("table2", 0)
        seeds = {point_seed("table2", i) for i in range(16)}
        assert len(seeds) == 16

    def test_merge_point_stats_semantics(self):
        from repro.bench.harness import _merge_point_stats

        eng = [
            {"events_processed": 10, "events_cancelled": 1,
             "peak_heap_size": 5, "heap_compactions": 2},
            {"events_processed": 20, "events_cancelled": 3,
             "peak_heap_size": 9, "heap_compactions": 0},
        ]
        pc = [
            {"hits": 6, "misses": 2, "evictions": 1, "entries": 2},
            {"hits": 3, "misses": 1, "evictions": 0, "entries": 1},
        ]
        merged = _merge_point_stats(eng, pc)
        assert merged["events_processed"] == 30
        assert merged["events_cancelled"] == 4
        assert merged["peak_heap_size"] == 9  # max, not sum
        assert merged["heap_compactions"] == 2
        assert merged["plan_cache"]["hits"] == 9
        assert merged["plan_cache"]["misses"] == 3
        assert merged["plan_cache"]["hit_rate"] == pytest.approx(0.75)

    def test_run_grid_point_is_isolated_and_ordered(self):
        from repro.bench.harness import _run_grid_point

        mod = load_experiment("table2")
        points = mod.grid(quick=True)
        idx, result, eng_stats, pc_stats, fab_stats = _run_grid_point(
            ("table2", 1, points[1], True)
        )
        assert idx == 1
        assert result > 0
        assert eng_stats["events_processed"] > 0
        # Per-point isolation: the cache was cleared before the point ran,
        # so every miss in the stats belongs to this point alone.
        assert pc_stats["misses"] > 0
        assert pc_stats["hits"] + pc_stats["misses"] > 0
        # Single-channel workload: all fabric traffic on lane 0.
        assert fab_stats["channel_messages"][0] > 0
        assert not any(fab_stats["channel_messages"][1:])

    def test_grid_order_matches_table_order(self):
        mod = load_experiment("table2")
        points = mod.grid(quick=True)
        assert points == sorted(points, key=lambda pt: points.index(pt))
        out = mod.assemble([float(i) for i in range(len(points))], quick=True)
        assert [out.values[pt] for pt in points] == [
            float(i) for i in range(len(points))
        ]


class TestAsciiRendering:
    def test_fig5_ascii(self, capsys):
        rc = main(["fig5", "--quick", "--ascii"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "#" in out and "blocking" in out

    def test_non_bandwidth_experiment_no_chart(self, capsys):
        rc = main(["secva", "--quick", "--ascii"])
        assert rc == 0
