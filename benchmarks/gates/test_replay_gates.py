"""Wall-clock gates on record/replay, machine speed cancelled in-process.

Each gate compares two costs measured in the same process (recorded vs
plain run, replayed vs simulated re-tune) or divides a wall by the
engine reference loop ``benchmarks/perf`` reports as
``bench.ref_loop_eps``, so a slower or faster host moves both sides.
"""

from __future__ import annotations

import time

import numpy as np

from repro.kernels import run_ssc
from repro.netmodel import NetworkParams
from repro.sim import Engine
from repro.sim.replay import replay_kernel_grid
from repro.tune import Tuner

#: Normalized cost (wall x ref-loop events/s) of replaying the 31-point
#: batch below on the p=3, n=5330, N_DUP=1 recording: the median and the
#: spread (max - min) of 12 fresh-process runs on a 2-core Intel Xeon box.
REPLAY_COST_REF = 195_500
REPLAY_COST_SPREAD = 7_200


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _ref_loop(n=100_000):
    """The schedule-one-fire-one engine loop of ``bench.ref_loop_eps``."""
    eng = Engine()
    left = [n]

    def tick():
        if left[0] > 0:
            left[0] -= 1
            eng.call_after(1e-6, tick)
    tick()
    eng.run()


def replay_cost() -> float:
    """Best-of-5 wall of one 31-point replay grid, in ref-loop events."""
    base = NetworkParams()
    rec = run_ssc(3, 5330, "optimized", n_dup=1, record=True).recording
    factors = np.exp(np.random.default_rng(0).uniform(
        -np.log(2.0), np.log(2.0), size=(31, 2)))
    points = [{"alpha": base.alpha * float(fa),
               "nic_bandwidth": base.nic_bandwidth * float(fb)}
              for fa, fb in factors]
    replay_kernel_grid(rec, points)                  # warm up
    grid = _best_of(5, lambda: replay_kernel_grid(rec, points))
    loop = _best_of(3, _ref_loop)
    return grid * 100_000 / loop


def test_replay_cost_within_reference():
    """Replay itself must not get slower: a fixed batch of the benchmark's
    steadiest op shape (``tune_replay``'s ``grid.p3.*``) stays within three
    spreads of the committed reference."""
    cost = replay_cost()
    limit = REPLAY_COST_REF + 3 * REPLAY_COST_SPREAD
    assert cost <= limit, (
        f"31-point replay grid costs {cost:,.0f} ref-loop events "
        f"(> {limit:,}; reference {REPLAY_COST_REF:,})")


def test_recording_costs_at_most_1_7x_a_plain_run():
    """The paper-scale p=4, N_DUP=8 run cost 2.06x with per-node Python
    objects and ~1.3x with column storage and one recorder call per
    progress submission; a recorder that allocates per node again trips
    this."""
    def run(**kw):
        return lambda: run_ssc(4, 5330, "optimized", n_dup=8, **kw)

    plain, recorded = _best_of(3, run()), _best_of(3, run(record=True))
    assert recorded <= 1.7 * plain, (
        f"recording costs {recorded / plain:.2f}x a plain run")


def test_replayed_retune_costs_no_more_than_simulated():
    """Best of three trials, each a fresh Tuner: a cold autotune_ssc(3,
    5330), then one timed re-tune under nic_bandwidth x0.9 (a second
    re-tune would replay graphs re-recorded at x0.9).  That perturbation
    reorders the N_DUP >= 4 progress queues; replay follows them, so all
    five shortlist graphs are served."""
    base = NetworkParams()
    slower = base.replace(nic_bandwidth=0.9 * base.nic_bandwidth)

    def retune(mode):
        best = float("inf")
        for _ in range(3):
            tuner = Tuner(replay=mode)
            tuner.autotune_ssc(3, 5330)
            t0 = time.perf_counter()
            tuner.autotune_ssc(3, 5330, params=slower)
            best = min(best, time.perf_counter() - t0)
        return best, tuner

    off, _ = retune("off")
    on, tuner = retune("on")
    assert tuner.replays == 5 and not tuner.replay_refusals, (
        tuner.replays, dict(tuner.replay_refusals))
    assert on <= off, f"replayed re-tune {on:.3f}s > simulated {off:.3f}s"
