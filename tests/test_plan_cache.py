"""Tests for the collective plan cache (repro.mpi.collectives.plan).

Covers the three properties the cache must uphold:

* a cache *hit* is behaviorally invisible — a run served entirely from a
  warm cache produces a bit-for-bit identical trace to a cold run;
* the LRU bound holds (eviction order, counter bookkeeping);
* the precomputed per-op metadata (sizes, round maxima, the static
  may-alias bit) matches what the executor used to derive per call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.symmsquarecube import run_ssc
from repro.mpi.collectives.algorithms import validate_schedules
from repro.mpi.collectives.plan import (
    GENERATORS,
    CollectivePlan,
    PlanCache,
    get_plan,
    shared_plans,
)


class TestCollectivePlan:
    def test_ops_carry_sizes(self):
        plan = CollectivePlan.build("bcast_binomial", 8, 0, 0, 1000, 8)
        for rnd, max_nbytes in zip(plan.rounds, plan.round_max_nbytes):
            assert max_nbytes == max((op[4] for op in rnd), default=0)
            for kind, peer, lo, hi, nbytes, needs_copy in rnd:
                assert nbytes == (hi - lo) * 8
                assert kind in ("send", "copy", "add")
                assert isinstance(needs_copy, bool)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError, match="unknown collective algorithm"):
            CollectivePlan.build("nope", 4, 0, 0, 10, 8)

    @settings(max_examples=40, deadline=None)
    @given(
        alg=st.sampled_from(sorted(GENERATORS)),
        p=st.integers(min_value=1, max_value=16),
        n=st.integers(min_value=0, max_value=4096),
        root_frac=st.floats(0, 0.999),
    )
    def test_plan_rounds_equal_generated_schedule(self, alg, p, n, root_frac):
        """Plans are the generator's schedule plus metadata — never more."""
        root = int(root_frac * p)
        gen = GENERATORS[alg]
        for me in range(p):
            plan = CollectivePlan.build(alg, p, me, root, n, 8)
            raw = gen(p, root, me, n)
            assert [[op[:4] for op in rnd] for rnd in plan.rounds] == \
                [list(rnd) for rnd in raw]

    def test_may_alias_bit_same_round_overlap(self):
        plan = CollectivePlan.from_schedule(
            [[("send", 1, 0, 100), ("copy", 1, 50, 150)]], 8
        )
        assert plan.rounds[0][0][5] is True

    def test_may_alias_bit_earlier_round_receive_is_safe(self):
        plan = CollectivePlan.from_schedule(
            [[("copy", 1, 0, 100)], [("send", 1, 0, 100)]], 8
        )
        assert plan.rounds[1][0][5] is False

    def test_may_alias_bit_disjoint_ranges_are_safe(self):
        plan = CollectivePlan.from_schedule(
            [[("send", 1, 0, 50), ("add", 1, 50, 100)]], 8
        )
        assert plan.rounds[0][0][5] is False

    @staticmethod
    def _brute_force_needs_copy(schedule):
        """Reference: send needs a copy iff a same/later-round recv overlaps."""
        flags = []
        for i, rnd in enumerate(schedule):
            for op in rnd:
                if op[0] != "send":
                    continue
                lo, hi = op[2], op[3]
                overlap = hi > lo and any(
                    o[0] != "send" and o[3] > o[2]
                    and o[2] < hi and lo < o[3]
                    for later in schedule[i:] for o in later
                )
                flags.append(overlap)
        return flags

    @settings(max_examples=40, deadline=None)
    @given(
        alg=st.sampled_from(sorted(GENERATORS)),
        p=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=0, max_value=8192),
    )
    def test_may_alias_bits_match_brute_force(self, alg, p, n):
        for me in range(p):
            plan = CollectivePlan.build(alg, p, me, 0, n, 8)
            got = [op[5] for rnd in plan.rounds for op in rnd
                   if op[0] == "send"]
            raw = [[op[:4] for op in rnd] for rnd in plan.rounds]
            assert got == self._brute_force_needs_copy(raw), (alg, p, me)

    def test_pipeline_generators_fully_zero_copy(self):
        """The pure ring pipelines never need a snapshot: each rank sends a
        segment it will not receive again — the bulk of the repo's traffic."""
        for alg in ("allgather_ring", "reduce_scatter_ring"):
            for p in (2, 3, 4, 7, 8):
                for me in range(p):
                    plan = CollectivePlan.build(alg, p, me, 0, 4096, 8)
                    flagged = [op for rnd in plan.rounds for op in rnd
                               if op[0] == "send" and op[5]]
                    assert not flagged, (alg, p, me, flagged)


class TestPlanCache:
    def test_hit_returns_same_object(self):
        cache = PlanCache()
        a = cache.get("bcast_binomial", 8, 3, 0, 100, 8)
        b = cache.get("bcast_binomial", 8, 3, 0, 100, 8)
        assert a is b
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_distinct_keys_distinct_plans(self):
        cache = PlanCache()
        a = cache.get("bcast_binomial", 8, 3, 0, 100, 8)
        b = cache.get("bcast_binomial", 8, 3, 1, 100, 8)  # other root
        assert a is not b
        assert cache.stats()["misses"] == 2

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        k1 = ("bcast_binomial", 4, 0, 0, 10, 8)
        k2 = ("bcast_binomial", 4, 1, 0, 10, 8)
        k3 = ("bcast_binomial", 4, 2, 0, 10, 8)
        cache.get(*k1)
        cache.get(*k2)
        cache.get(*k1)  # refresh k1: k2 is now least-recent
        cache.get(*k3)  # evicts k2
        assert k1 in cache and k3 in cache and k2 not in cache
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_eviction_rebuilds_on_next_get(self):
        cache = PlanCache(maxsize=1)
        a = cache.get("bcast_binomial", 4, 0, 0, 10, 8)
        cache.get("bcast_binomial", 4, 1, 0, 10, 8)
        a2 = cache.get("bcast_binomial", 4, 0, 0, 10, 8)
        assert a is not a2
        assert a2.rounds == a.rounds
        assert cache.stats() == {
            "hits": 0, "misses": 3, "evictions": 2, "entries": 1,
            "hit_rate": 0.0,
        }

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = PlanCache()
        cache.get("barrier", 8, 0)
        cache.get("barrier", 8, 0)
        cache.clear()
        assert len(cache) == 0
        # Counters are cumulative history; clear() must not rewrite it.
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 0,
            "hit_rate": 0.5,
        }
        # The dropped plan rebuilds as a fresh miss.
        cache.get("barrier", 8, 0)
        assert cache.stats()["misses"] == 2

    def test_reset_zeroes_counters_but_keeps_entries(self):
        cache = PlanCache()
        cache.get("barrier", 8, 0)
        cache.get("barrier", 8, 0)
        cache.reset()
        assert len(cache) == 1
        assert cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 1,
            "hit_rate": 0.0,
        }
        # The retained plan still serves hits after the counter reset.
        cache.get("barrier", 8, 0)
        assert cache.stats()["hits"] == 1

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_sweep_counters_pinned(self):
        # Four passes over every (algorithm, p, size, rank) key: the first
        # pass misses each of the 6 * (4 + 16 + 64) * 2 = 1008 keys once,
        # the other three hit, and the default bound evicts nothing.
        cache = PlanCache()
        for _ in range(4):
            for alg in ("bcast_binomial", "bcast_long", "reduce_rabenseifner",
                        "allreduce_long", "allgather_ring", "barrier"):
                for p in (4, 16, 64):
                    for n in (1_000, 1_000_000):
                        for me in range(p):
                            cache.get(alg, p, me, 0, n, 8)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"],
                stats["entries"]) == (3024, 1008, 0, 1008)

    def test_cached_plans_stay_valid_schedules(self):
        cache = PlanCache()
        for p in (1, 2, 5, 8, 13):
            for n in (0, 1, p - 1, 1000):
                validate_schedules(
                    lambda me: [
                        [op[:4] for op in rnd]
                        for rnd in cache.get("allreduce_ring", p, me, 0, n, 8)
                    ],
                    p, n,
                )


class TestCacheHitTransparency:
    """A warm cache must be behaviorally invisible, bit for bit."""

    def _trace(self):
        return run_ssc(2, 8, "optimized", n_dup=2, ppn=2, iterations=1,
                       trace=True).world.trace.to_jsonable()

    def test_cold_vs_warm_trace_identical(self):
        shared_plans.clear()
        cold = self._trace()
        stats_after_cold = shared_plans.stats()
        assert stats_after_cold["misses"] > 0
        warm = self._trace()  # every plan now served from cache
        stats_after_warm = shared_plans.stats()
        assert stats_after_warm["misses"] == stats_after_cold["misses"]
        assert stats_after_warm["hits"] > stats_after_cold["hits"]
        assert warm == cold

    def test_cold_vs_warm_numerics_identical(self):
        n, p = 12, 2
        rng = np.random.default_rng(7)
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        shared_plans.clear()
        cold = run_ssc(p, n, "optimized", a, n_dup=2, iterations=1)
        warm = run_ssc(p, n, "optimized", a, n_dup=2, iterations=1)
        assert shared_plans.stats()["hits"] > 0
        np.testing.assert_array_equal(cold.d2, warm.d2)
        np.testing.assert_array_equal(cold.d3, warm.d3)

    def test_get_plan_uses_shared_cache(self):
        shared_plans.clear()
        before = shared_plans.stats()["misses"]
        get_plan("bcast_binomial", 4, 0, 0, 64, 8)
        get_plan("bcast_binomial", 4, 0, 0, 64, 8)
        s = shared_plans.stats()
        assert s["misses"] == before + 1
        assert s["hits"] >= 1
