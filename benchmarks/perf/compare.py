#!/usr/bin/env python3
"""Judge two result sets: ``python3 benchmarks/perf/compare.py BASE NEW``.

``BASE`` and ``NEW`` are directories written by ``run.py --out`` (at least
ten seeds per workload each, the same seeds on both sides).  Per metric x
workload it prints the median and quartiles of each side and one verdict:

improved
    NEW wins at least 9/10 of the seed-matched pairs (ties count for
    neither side) *and* the medians differ by more than BASE's own
    inter-quartile distance.
REGRESSED
    NEW's median is worse than BASE's by more than the metric's bound, and
    by more than the run-to-run spread.
unresolved
    the spread (the wider side's inter-quartile distance over BASE's
    median) exceeds the bound, so "no change" cannot be claimed - unless
    every NEW run reads better than every BASE run.
unchanged
    none of the above.

Exits 1 on any regression or on a higher ``fail_frac``.  If both sides
hold traced results, the exact counts are compared too: a pure speed-up
must leave every one of them identical.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from perfbench import metrics  # noqa: E402  (needs HERE on the path)

#: Counts that are measurements, not exact: they may differ between sets.
_INEXACT = {"sim.engine.us_per_event", "bench.trace_overhead",
            "bench.ref_loop_eps", "bench.ref_gemm_gflops"}


def load(directory: str) -> dict:
    """``{workload: {seed: result doc}}`` for untraced runs, plus traced
    docs under the key ``(workload, "trace")``."""
    out: dict = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        key = (doc["workload"], "trace") if "per_layer" in doc else doc["workload"]
        out.setdefault(key, {})[doc["seed"]] = doc
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list, new: list, bound: float) -> str:
    """All metrics are lower-is-better; ``base[i]``/``new[i]`` share a seed."""
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    wins = sum(n < b for b, n in zip(base, new))
    losses = sum(n > b for b, n in zip(base, new))
    if (wins >= 0.9 * len(base) and wins > losses
            and bmed - nmed > b3 - b1):
        return "improved"
    worse = (nmed - bmed) / bmed
    spread = max(b3 - b1, n3 - n1) / bmed
    if worse > bound:
        return "REGRESSED" if worse > spread else "unresolved"
    if spread > bound and not max(new) < min(base):
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    failed = False
    print(f"{'workload':<15} {'metric':<12} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32}  verdict")
    for workload in metrics.WORKLOADS:
        if workload not in base or workload not in new:
            continue
        seeds = sorted(set(base[workload]) & set(new[workload]))
        if not seeds:
            print(f"{workload}: no seed in common", file=sys.stderr)
            return 2
        for name, _unit, bound in metrics.END_TO_END:
            b = [base[workload][s]["end_to_end"][name] for s in seeds]
            n = [new[workload][s]["end_to_end"][name] for s in seeds]
            v = verdict(b, n, bound)
            failed |= v == "REGRESSED"
            fmt = "/".join(["{:.4g}"] * 3)
            print(f"{workload:<15} {name:<12} {fmt.format(*quartiles(b)):>32} "
                  f"{fmt.format(*quartiles(n)):>32}  {v}  (n={len(seeds)})")
        frac = [statistics.fmean(len(side[workload][s]["failures"])
                                 / side[workload][s]["attempted"]
                                 for s in seeds) for side in (base, new)]
        worse = frac[1] > frac[0]
        failed |= worse
        print(f"{workload:<15} {'fail_frac':<12} {frac[0]:>32.6f} "
              f"{frac[1]:>32.6f}  {'REGRESSED' if worse else 'unchanged'}")

        key = (workload, "trace")
        for seed in sorted(set(base.get(key, ())) & set(new.get(key, ()))):
            bdoc = base[key][seed]["per_layer"]
            ndoc = new[key][seed]["per_layer"]
            moved = [name for name, _u, _b in metrics.COUNTS
                     if name not in _INEXACT and bdoc[name] != ndoc[name]]
            print(f"{workload:<15} exact counts, seed {seed}: "
                  + (f"CHANGED {', '.join(moved)}" if moved else "identical"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
