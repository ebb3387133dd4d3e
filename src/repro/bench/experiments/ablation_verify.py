"""Ablation — runtime-verifier overhead: virtual time free, wall time cheap.

``World(verify=True)`` attaches the :class:`repro.analysis.CommVerifier`,
whose hooks are passive by construction: they read state and register
event callbacks but never schedule work or charge virtual time.  This
experiment makes that contract measurable.  For each kernel configuration
it runs the same schedule verified and unverified and reports:

* the simulated per-call times — asserted *identical*, list for list
  (the verifier is invisible to the model being studied);
* the finding count, which must be zero for the paper kernels.

The host wall-clock cost of the two runs — the only price of verifying,
paid in real seconds on the workstation, not in modeled seconds — lands in
``values`` but not in the rendered table, so the committed render is
byte-stable; ``docs/analysis.md`` records a measured ratio.
"""

from __future__ import annotations

import time

from repro.bench.harness import ExperimentOutput
from repro.kernels import run_ssc
from repro.kernels.ssc25d import run_ssc25d
from repro.purify import SYSTEMS
from repro.util import Table

N = SYSTEMS["1hsg_70"][0]
ITERATIONS = 2


def _configs(quick: bool) -> dict[str, dict]:
    p = 2 if quick else 4
    ppn = 2 if quick else 4
    return {
        f"ssc-optimized-{p}^3": dict(
            kind="ssc", p=p, n_dup=2, ppn=ppn),
        f"ssc-baseline-{p}^3": dict(
            kind="ssc", p=p, algorithm="baseline", n_dup=1, ppn=ppn),
        f"ssc25d-{p}x{p}x{p // 2 or 1}": dict(
            kind="25d", q=p, c=max(p // 2, 1), n_dup=2, ppn=ppn),
    }


def _run_one(cfg: dict, verify: bool):
    t0 = time.perf_counter()
    if cfg["kind"] == "ssc":
        res = run_ssc(cfg["p"], N, cfg.get("algorithm", "optimized"),
                      n_dup=cfg["n_dup"], ppn=cfg["ppn"],
                      iterations=ITERATIONS, verify=verify)
    else:
        res = run_ssc25d(cfg["q"], cfg["c"], N, n_dup=cfg["n_dup"],
                         ppn=cfg["ppn"], iterations=ITERATIONS, verify=verify)
    wall = time.perf_counter() - t0
    findings = 0 if res.world.verifier is None \
        else len(res.world.verifier.findings)
    return list(res.times), wall, findings


def run(quick: bool = False) -> ExperimentOutput:
    t = Table(
        ["Config", "Sim time/call [s]", "Sim identical", "Findings"],
        title="Ablation: CommVerifier overhead (simulated time)",
    )
    values: dict = {}
    for name, cfg in _configs(quick).items():
        times_off, wall_off, _ = _run_one(cfg, verify=False)
        times_on, wall_on, findings = _run_one(cfg, verify=True)
        identical = times_off == times_on
        overhead = wall_on / wall_off if wall_off > 0 else float("inf")
        values[name] = {
            "times_off": times_off,
            "times_on": times_on,
            "sim_identical": identical,
            "wall_off": wall_off,
            "wall_on": wall_on,
            "wall_overhead": overhead,
            "findings": findings,
        }
        t.add_row([name, sum(times_on) / len(times_on), identical,
                   findings])
    return ExperimentOutput(
        name="ablation-verify",
        tables=[t],
        values=values,
        notes=(
            "Verification is free in simulated time: per-call times match\n"
            "the unverified run exactly (the hooks never touch the event\n"
            "heap).  The host wall-clock ratio is the only cost —\n"
            "bookkeeping plus call-site capture — and buys sequence,\n"
            "leak, hazard, tag and deadlock checking on every run (it is\n"
            "measured in docs/analysis.md, not rendered here)."
        ),
    )


def check(output: ExperimentOutput) -> None:
    for name, row in output.values.items():
        assert row["sim_identical"], (
            f"{name}: verifier changed simulated timings "
            f"{row['times_off']} -> {row['times_on']}"
        )
        assert row["findings"] == 0, f"{name}: verifier reported findings"
        assert row["wall_on"] > 0 and row["wall_off"] > 0
