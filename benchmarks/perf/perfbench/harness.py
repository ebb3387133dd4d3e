"""Ops, passes and the metrics computed from them.

A workload is a fixed list of :class:`Op`.  One *pass* runs the list once
as a closed loop with one client: before each op the process-wide caches
and counters are reset the way ``repro.bench.harness`` resets them per grid
point, so an op's time does not depend on its position in the script.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from perfbench.layers import LayerProfile, Spans
from perfbench.metrics import COUNTS, INVARIANT_KIND, KINDS, LAYERS


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Out:
    """What an op hands back.

    ``value`` is whatever its check needs; ``virtual`` are the simulated
    seconds it produced, digested bit-for-bit so a host-side speed-up can
    be shown to have left simulated time alone.
    """

    value: Any = None
    virtual: tuple = ()


@dataclass
class Op:
    name: str                               #: unique within the script
    kind: str                               #: one of metrics.KINDS, or invariant
    run: Callable[[], Out]                  #: the timed call
    check: Callable[[Out], None] | None = None  #: untimed; raises on a wrong output
    pinned: bool = False                    #: seed-independent: digest is pinned


@dataclass
class Script:
    ops: list
    #: Called once after the pass: replay/tune/service counters the script's
    #: own objects expose (``Tuner.replays``, ``TuningService.stats()``...).
    counters: Callable[[], dict] = dict
    #: Collect every generation before each op.  A script that keeps
    #: millions of live objects (tune_replay's recordings) turns it off: a
    #: full pass over that heap costs 0.2 s and would be paid 50 times.
    full_gc: bool = True


def digest(virtual) -> str:
    text = ",".join(float(v).hex() for v in virtual)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def _isolate(full_gc: bool) -> None:
    from repro.mpi.collectives.plan import shared_plans
    from repro.netmodel.fabric import Fabric
    from repro.sim.engine import Engine

    shared_plans.clear()
    shared_plans.reset()
    Engine.reset_aggregate_stats()
    Fabric.reset_aggregate_stats()
    gc.collect() if full_gc else gc.collect(1)


@dataclass
class PassResult:
    samples: list          #: (name, kind, wall_s, cpu_s) per timed op
    failures: list         #: (name, reason) per failed op
    attempted: int
    digests: dict          #: op name -> virtual-time digest
    counts: dict           #: the exact-count metrics of this pass

    @property
    def wall_s(self) -> float:
        return sum(s[2] for s in self.samples)

    @property
    def cpu_s(self) -> float:
        return sum(s[3] for s in self.samples)


def run_pass(script: Script, *, profile: LayerProfile | None = None,
             spans: Spans | None = None, parent: int | None = None,
             ) -> PassResult:
    from repro.mpi.collectives.plan import shared_plans
    from repro.netmodel.fabric import Fabric
    from repro.sim.engine import Engine

    samples, failures, digests = [], [], {}
    events = cancelled = peak = compactions = 0
    messages = lane_messages = hits = misses = 0
    nbytes = virtual_s = 0.0
    for op in script.ops:
        _isolate(script.full_gc)
        span = spans.open(op.name, op.kind, parent) if spans else None
        timed = op.kind != INVARIANT_KIND
        if profile and timed:
            profile.enable()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception:           # the loop must outlive a failing op
            out, error = None, traceback.format_exc(limit=8)
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        if profile and timed:
            profile.disable()
        if spans:
            spans.close(span)
        if timed:
            samples.append((op.name, op.kind, t1 - t0, cpu1 - cpu0))
        eng = Engine.aggregate_stats()
        events += eng["events_processed"]
        cancelled += eng["events_cancelled"]
        peak = max(peak, eng["peak_heap_size"])
        compactions += eng["heap_compactions"]
        fab = Fabric.aggregate_stats()
        messages += sum(fab["channel_messages"])
        lane_messages += sum(fab["channel_messages"][1:])
        nbytes += sum(fab["channel_bytes"])
        plans = shared_plans.stats()
        hits += plans["hits"]
        misses += plans["misses"]
        if error is None and op.check is not None:
            try:
                op.check(out)
            except Exception:       # a wrong output is a failed op, not a crash
                error = traceback.format_exc(limit=8)
        if error is not None:
            failures.append((op.name, error))
        elif out is not None and out.virtual:
            digests[op.name] = digest(out.virtual)
            virtual_s += sum(out.virtual)
    counts = {
        "sim.engine.events": events,
        "sim.engine.cancelled": cancelled,
        "sim.engine.peak_heap": peak,
        "sim.engine.compactions": compactions,
        "sim.virtual_s": virtual_s,
        "netmodel.fabric.messages": messages,
        "netmodel.fabric.bytes": nbytes,
        "netmodel.fabric.lane_messages": lane_messages,
        "mpi.collectives.plan_hits": hits,
        "mpi.collectives.plan_misses": misses,
        "mpi.collectives.plan_hit_rate":
            hits / (hits + misses) if hits + misses else 0.0,
    }
    counts.update(script.counters())
    attempts = counts.get("sim.replay.attempts", 0)
    counts["sim.replay.served_frac"] = (
        1.0 - counts.get("sim.replay.invalid", 0) / attempts if attempts
        else 0.0)
    return PassResult(samples=samples, failures=failures,
                      attempted=len(script.ops), digests=digests,
                      counts=counts)


def end_to_end(result: PassResult) -> dict:
    """The timing metrics of one untraced pass (memory and set-up are the
    caller's: they belong to the process, not to a pass)."""
    walls = sorted(s[2] * 1e3 for s in result.samples)
    return {
        "wall_s": result.wall_s,
        "cpu_s": result.cpu_s,
        "op_p50_ms": statistics.median(walls),
        "op_p80_ms": percentile(walls, 0.80),
    }


def kind_medians(result: PassResult) -> dict:
    by_kind: dict[str, list] = {k: [] for k in KINDS}
    for _name, kind, wall, _cpu in result.samples:
        by_kind[kind].append(wall)
    return {f"{k}_s": statistics.median(v) if v else 0.0
            for k, v in by_kind.items()}


def per_layer_metrics(untraced: PassResult, traced: PassResult,
                      profile: LayerProfile, drift: int, refs: dict) -> dict:
    """Every per-layer metric: (a) traced shares, (b) counts, (c) kind medians."""
    self_s, calls = profile.by_layer()
    # What the profiler did not see inside an op (its own overhead, C code
    # called from files it cannot name) is the workload span's remainder.
    self_s["other"] += max(traced.wall_s - sum(self_s.values()), 0.0)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    counts = dict(untraced.counts)
    events = counts["sim.engine.events"]
    counts["sim.engine.us_per_event"] = (
        untraced.wall_s * 1e6 / events if events else 0.0)
    counts["sim.virtual_digest_drift"] = drift
    counts["bench.trace_overhead"] = traced.wall_s / untraced.wall_s
    counts.update(refs)
    for name, _unit, _better in COUNTS:
        out[name] = counts.get(name, 0)
    out.update(kind_medians(untraced))
    return out
