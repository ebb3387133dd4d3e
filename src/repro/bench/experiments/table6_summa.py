"""Table VI — the SUMMA family: colors x tile depth x mesh.

Not a paper table: SUMMA is the related-work 2D algorithm
(:mod:`repro.dense.summa`), and this sweep demonstrates the two ways the
repo overlaps its panel broadcasts with *other* broadcasts — the paper's
central idea applied to a kernel the paper does not optimize:

* **streaming** — pre-post a depth-``d`` window of panel ``ibcast`` pairs
  on one lane, so successive rounds' broadcasts share the wire;
* **colored** — pin successive panels to 2 or 4 disjoint virtual channels
  (``Mesh2D(n_dup=colors)`` communicator duplicates, one per color), so
  the link is split but never idles between rounds.

The grid is (mesh, variant) with variants spanning color count and
pre-posted tile depth; a final *tune* point runs the autotuner on the
p=4 mesh and must pick a non-default (variant, colors, depth) winner.

Targets: on the bandwidth-bound p=4 / n=2048 configuration the 4-color
pipelined variant beats plain SUMMA by >= 1.5x simulated time, streaming
with depth 4 beats depth 2, and the tuner's pick is not the plain default.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.dense import run_summa
from repro.tune.validity import validate_summa_config
from repro.util import Table

#: Problem size: (n/p)^2 * 8B panels keep every mesh bandwidth-bound.
N = 2048
#: The committed speedup gate for colored-4 vs plain on the p=4 mesh
#: (its virtual times are pinned in ``tests/test_summa_family.py``).
SPEEDUP_TARGET = 1.5

#: label -> (algorithm, colors, depth)
VARIANTS: dict[str, tuple[str, int, int]] = {
    "plain": ("plain", 1, 1),
    "stream-d2": ("streaming", 1, 2),
    "stream-d4": ("streaming", 1, 4),
    "col2-d2": ("colored", 2, 2),
    "col4-d4": ("colored", 4, 4),
}

TUNE_P = 4


def _meshes(quick: bool) -> tuple[int, ...]:
    return (2, 4) if quick else (2, 4, 8)


def _valid(p: int, label: str) -> bool:
    alg, colors, depth = VARIANTS[label]
    try:
        validate_summa_config(p, N, alg, colors, depth, 1)
    except ValueError:
        return False
    return True


def grid(quick: bool = False) -> list[tuple]:
    """One point per valid (mesh, variant) cell plus the tune point."""
    pts: list[tuple] = [
        ("variant", p, label)
        for p in _meshes(quick)
        for label in VARIANTS
        if _valid(p, label)
    ]
    pts.append(("tune", TUNE_P))
    return pts


def run_point(point: tuple, quick: bool = False) -> dict:
    if point[0] == "tune":
        from repro.tune import Tuner

        _, p = point
        decision = Tuner().autotune_summa(p, N)
        return {
            "best": decision.best.key,
            "best_time": decision.best_time,
            "default": decision.default.key,
            "default_time": decision.default_time,
            "non_default": decision.best.key != decision.default.key,
            "simulations": decision.simulations,
        }
    _, p, label = point
    alg, colors, depth = VARIANTS[label]
    res = run_summa(p, N, algorithm=alg, colors=colors, depth=depth)
    return {"elapsed": res.elapsed}


def assemble(results: list[dict], quick: bool = False) -> ExperimentOutput:
    values = dict(zip(grid(quick), results))
    t = Table(
        ["Mesh"] + list(VARIANTS) + ["best/plain"],
        title=f"Table VI: SUMMA variants, simulated time (ms), n={N}, PPN=1",
    )
    for p in _meshes(quick):
        row: list = [f"{p}x{p}"]
        times = {}
        for label in VARIANTS:
            v = values.get(("variant", p, label))
            times[label] = v["elapsed"] if v else None
            row.append(v["elapsed"] * 1e3 if v else "-")
        pipelined = [e for lb, e in times.items() if lb != "plain" and e]
        row.append(times["plain"] / min(pipelined))
        t.add_row(row)
    tune = values[("tune", TUNE_P)]
    tt = Table(
        ["Mesh", "Default", "ms", "Autotuned", "ms", "Sims"],
        title="Table VI: autotuned SUMMA configuration",
    )
    tt.add_row([
        f"{TUNE_P}x{TUNE_P}", tune["default"], tune["default_time"] * 1e3,
        tune["best"], tune["best_time"] * 1e3, tune["simulations"],
    ])
    return ExperimentOutput(
        name="table6",
        tables=[t, tt],
        values=values,
        notes=(
            "plain = blocking broadcasts, serialized rounds.  stream-dK\n"
            "pre-posts a K-deep window of panel ibcasts on one lane;\n"
            "colC-dK pins successive panels to C disjoint virtual channels\n"
            "(C communicator duplicates, 1/C link share each).  See\n"
            "docs/channels.md."
        ),
    )


def run(quick: bool = False) -> ExperimentOutput:
    return assemble([run_point(pt, quick=quick) for pt in grid(quick)], quick=quick)


def check(output: ExperimentOutput) -> None:
    v = output.values
    meshes = sorted({p for pt in v if pt[0] == "variant" for p in [pt[1]]})

    def elapsed(p: int, label: str) -> float:
        return v[("variant", p, label)]["elapsed"]

    for p in meshes:
        plain = elapsed(p, "plain")
        # Every pipelined variant overlaps broadcasts that plain serializes.
        for label in VARIANTS:
            if label != "plain" and ("variant", p, label) in v:
                assert elapsed(p, label) < plain, f"{label} no gain at p={p}"
        # Deeper pre-posting windows keep more broadcasts in flight
        # (depth 4 needs p >= 4 panels to pre-post).
        if ("variant", p, "stream-d4") in v:
            assert elapsed(p, "stream-d4") <= elapsed(p, "stream-d2") * 1.001, (
                f"depth-4 streaming slower than depth-2 at p={p}"
            )
    # The committed gate: 4-color pipelined multicast >= 1.5x over plain
    # on the bandwidth-bound p=4 mesh.
    speedup = elapsed(4, "plain") / elapsed(4, "col4-d4")
    assert speedup >= SPEEDUP_TARGET, (
        f"colored-4 speedup {speedup:.2f}x below {SPEEDUP_TARGET:.1f}x at p=4"
    )
    tune = v[("tune", TUNE_P)]
    assert tune["non_default"], (
        f"autotuner kept the plain default ({tune['best']})"
    )
    assert tune["best_time"] < tune["default_time"], "autotuned pick not faster"
