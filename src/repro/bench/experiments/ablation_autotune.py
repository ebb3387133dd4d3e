"""Ablation — autotuned configuration vs the paper's defaults.

The paper fixes ``N_DUP = 4``, picks PPN per machine by hand (Table III)
and chooses the 2.5D replication factor per node count (Table V).  This
experiment lets :mod:`repro.tune` make those choices per workload across a
size sweep and compares the tuned configuration's simulated time against
the paper-default configuration of the same workload.

By construction (the default seeds the search incumbent and is always
simulated) the tuned time can never be worse than the default; the
interesting output is *how much* headroom the hand-picked defaults leave at
each scale, and which knob the tuner moved.  ``benchmarks/gates`` runs this
with ``--quick --check`` (the no-regression property) serially and with
``--jobs 2``, and requires byte-identical output.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.util import Table

#: Tuning-search seed — fixed so sweeps are byte-reproducible.
SEED = 0

# Workload points: ("ssc", p, n) or ("ssc25d", q, c, n).  Sizes are scaled
# down from the paper's n=7645..15305 so the full sweep stays minutes, not
# hours; the knob trade-offs (latency- vs bandwidth-bound) already flip
# across this range.
WORKLOADS = (
    ("ssc", 2, 256),
    ("ssc", 2, 1024),
    ("ssc", 3, 768),
    ("ssc", 4, 1536),
    ("ssc25d", 4, 2, 512),
    ("ssc25d", 6, 2, 1024),
)
QUICK_WORKLOADS = (
    ("ssc", 2, 256),
    ("ssc", 3, 384),
    ("ssc25d", 4, 2, 256),
)


def _workload_label(point) -> str:
    if point[0] == "ssc":
        _k, p, n = point
        return f"ssc p={p} n={n}"
    _k, q, c, n = point
    return f"ssc25d {q}x{q}x{c} n={n}"


def grid(quick: bool = False) -> list[tuple]:
    """One point per tuned workload."""
    return list(QUICK_WORKLOADS if quick else WORKLOADS)


def run_point(point: tuple, quick: bool = False) -> dict:
    """Run one tuning search; returns the full record as a plain dict."""
    from repro.tune.tuner import Tuner

    tuner = Tuner(policy="auto", seed=SEED)
    if point[0] == "ssc":
        _k, p, n = point
        record = tuner.autotune_ssc(p, n)
    else:
        _k, q, c, n = point
        record = tuner.autotune_ssc25d(q, c, n)
    return record.as_dict()


def assemble(results: list[dict], quick: bool = False) -> ExperimentOutput:
    t = Table(
        ["Workload", "Paper default", "default (s)", "Tuned", "tuned (s)",
         "Speedup", "Sims"],
        title="Ablation: autotuned configuration vs paper default",
    )
    values: dict = {}
    for point, rec in zip(grid(quick), results):
        values[point] = rec
        t.add_row([
            _workload_label(point),
            rec["default"]["algorithm"] + f":nd{rec['default']['n_dup']}"
            f":ppn{rec['default']['ppn']}",
            rec["default_time"],
            rec["best"]["algorithm"] + f":nd{rec['best']['n_dup']}"
            f":ppn{rec['best']['ppn']}:{rec['best']['collective']}",
            rec["best_time"],
            rec["speedup_vs_default"],
            rec["simulations"],
        ])
    return ExperimentOutput(
        name="ablation-autotune",
        tables=[t],
        values=values,
        notes=(
            "Tuned time can never exceed the paper default (the default\n"
            "seeds the search incumbent); the speedup column is the headroom\n"
            "the hand-picked N_DUP=4 / per-machine PPN defaults leave on the\n"
            "table at each scale."
        ),
    )


def run(quick: bool = False) -> ExperimentOutput:
    return assemble([run_point(pt, quick=quick) for pt in grid(quick)], quick=quick)


def check(output: ExperimentOutput) -> None:
    for point, rec in output.values.items():
        best, default = rec["best_time"], rec["default_time"]
        assert best is not None and default is not None, point
        # The no-regression guarantee: tuned never slower than the default.
        assert best <= default, (
            f"tuned config slower than paper default at {point}: "
            f"{best} > {default}"
        )
        assert rec["simulations"] >= 1, f"no simulation backed {point}"
    # The defaults should leave measurable headroom somewhere in the sweep
    # (otherwise the tuner is pointless at these scales).
    speedups = [rec["speedup_vs_default"] for rec in output.values.values()]
    assert max(speedups) > 1.01, f"tuner found no headroom: {speedups}"
