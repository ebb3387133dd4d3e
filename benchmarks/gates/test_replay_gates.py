"""Wall-clock gates on record/replay, machine speed cancelled in-process.

Each gate times its two sides (plain vs recorded run, simulated vs
replayed re-tune, engine reference loop vs replay grid) interleaved in
one process, :data:`PAIRS` pairs with the side that goes first
alternating, so drift and a busy neighbour hit both sides alike.  A gate
passes when its bound holds between the two sides' medians *and* within
a majority of the pairs, as ``benchmarks/perf/compare.py`` judges a
change.  The replay-cost gate divides the replay wall by the engine
reference loop ``benchmarks/perf`` reports as ``bench.ref_loop_eps``, so
a slower or faster host moves both sides.
"""

from __future__ import annotations

import statistics
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

#: Interleaved (A, B) pairs per gate.
PAIRS = 7


def _wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _paired(a, b, pairs: int = PAIRS) -> tuple[list[float], list[float]]:
    """Walls of ``a()`` and ``b()`` (each returns its own wall) over
    ``pairs`` interleaved pairs; ``b`` goes first in every other pair."""
    walls_a, walls_b = [], []
    for i in range(pairs):
        if i % 2:
            walls_b.append(b())
            walls_a.append(a())
        else:
            walls_a.append(a())
            walls_b.append(b())
    return walls_a, walls_b


def _holds(walls_a, walls_b, bound: float) -> tuple[bool, str]:
    """``B <= bound * A`` between the medians and in most pairs."""
    ratio = statistics.median(walls_b) / statistics.median(walls_a)
    wins = sum(b <= bound * a for a, b in zip(walls_a, walls_b))
    ok = ratio <= bound and wins > len(walls_a) / 2
    return ok, (f"median ratio {ratio:.3f} (bound {bound}), "
                f"{wins}/{len(walls_a)} pairs within the bound")


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


def replay_cost() -> tuple[list[float], list[float]]:
    """Interleaved walls of the 100k-event reference loop and of one
    31-point replay grid; a pair's cost in ref-loop events is
    ``grid * 100_000 / loop``."""
    base = NetworkParams()
    rec = run_ssc(3, 5330, "optimized", n_dup=1, record=True).recording
    factors = np.exp(np.random.default_rng(0).uniform(
        -np.log(2.0), np.log(2.0), size=(31, 2)))
    points = [{"alpha": base.alpha * float(fa),
               "nic_bandwidth": base.nic_bandwidth * float(fb)}
              for fa, fb in factors]
    replay_kernel_grid(rec, points)                  # warm up
    return _paired(lambda: _wall(_ref_loop),
                   lambda: _wall(lambda: replay_kernel_grid(rec, points)))


def test_replay_cost_within_reference():
    """Replay itself must not get slower: a fixed batch of the benchmark's
    steadiest op shape (``tune_replay``'s ``grid.p3.*``) stays within three
    spreads of the committed reference."""
    loops, grids = replay_cost()
    limit = REPLAY_COST_REF + 3 * REPLAY_COST_SPREAD
    ok, why = _holds(loops, grids, limit / 100_000)
    assert ok, (f"31-point replay grid vs ref-loop events: {why} "
                f"(reference {REPLAY_COST_REF:,}, limit {limit:,})")


def test_recording_costs_at_most_1_7x_a_plain_run():
    """The paper-scale p=4, N_DUP=8 run cost 2.06x with per-node Python
    objects and ~1.3x with column storage and one recorder call per
    progress submission; a recorder that allocates per node again trips
    this."""
    def run(**kw):
        return lambda: _wall(
            lambda: run_ssc(4, 5330, "optimized", n_dup=8, **kw))

    plain, recorded = _paired(run(), run(record=True))
    ok, why = _holds(plain, recorded, 1.7)
    assert ok, f"recording vs plain run: {why}"


def test_replayed_retune_costs_no_more_than_simulated():
    """Each side of a pair is a fresh Tuner: a cold autotune_ssc(3, 5330),
    then one timed re-tune under nic_bandwidth x0.9 (a second re-tune
    would replay graphs re-recorded at x0.9).  That perturbation reorders
    the N_DUP >= 4 progress queues; replay follows them, so every recorded
    shortlist graph is served, and the shortlist entries that run the same
    program as an earlier one reuse its score."""
    base = NetworkParams()
    slower = base.replace(nic_bandwidth=0.9 * base.nic_bandwidth)
    served = []             # (replays, aliased, refusals) of each re-tune

    def retune(mode):
        def trial():
            tuner = Tuner(replay=mode)
            tuner.autotune_ssc(3, 5330)
            before = (tuner.replays, tuner.aliased)
            wall = _wall(lambda: tuner.autotune_ssc(3, 5330, params=slower))
            if mode == "on":
                served.append((tuner.replays - before[0],
                               tuner.aliased - before[1],
                               dict(tuner.replay_refusals)))
            return wall
        return trial

    off, on = _paired(retune("off"), retune("on"))
    # Five shortlist entries, three programs: 3 replays + 2 aliases == 5.
    assert served == [(3, 2, {})] * PAIRS, served
    ok, why = _holds(off, on, 1.0)
    assert ok, f"replayed vs simulated re-tune: {why}"
