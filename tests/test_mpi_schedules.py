"""Property tests for collective schedule generation (pairing, volumes)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.schedule import verify_collective
from repro.mpi.collectives.algorithms import (
    allgather_ring,
    barrier_dissemination,
    bcast_binomial,
    bcast_long,
    reduce_binomial,
    reduce_rabenseifner,
    reduce_ring,
    schedule_volume_bytes,
)

p_strategy = st.integers(min_value=1, max_value=20)
pow2_strategy = st.sampled_from([1, 2, 4, 8, 16])
n_strategy = st.integers(min_value=0, max_value=4096)


def total_send_volume(make, p, n):
    return sum(schedule_volume_bytes(make(me), 1) for me in range(p))


def assert_clean(algorithm, p, root, n):
    """The plan set proves deadlock-free, matched and well-formed."""
    findings = verify_collective(algorithm, p, root, n)
    assert not findings, "\n".join(f.render() for f in findings)


class TestPairing:
    """Every send matches exactly one receive with an identical range."""

    @settings(max_examples=60, deadline=None)
    @given(p=p_strategy, n=n_strategy, root_frac=st.floats(0, 0.999))
    def test_bcast_binomial(self, p, n, root_frac):
        root = int(root_frac * p)
        assert_clean("bcast_binomial", p, root, n)

    @settings(max_examples=60, deadline=None)
    @given(p=p_strategy, n=n_strategy, root_frac=st.floats(0, 0.999))
    def test_bcast_long(self, p, n, root_frac):
        root = int(root_frac * p)
        assert_clean("bcast_long", p, root, n)

    @settings(max_examples=60, deadline=None)
    @given(p=p_strategy, n=n_strategy, root_frac=st.floats(0, 0.999))
    def test_reduce_binomial(self, p, n, root_frac):
        root = int(root_frac * p)
        assert_clean("reduce_binomial", p, root, n)

    @settings(max_examples=60, deadline=None)
    @given(p=pow2_strategy, n=n_strategy, root_frac=st.floats(0, 0.999))
    def test_reduce_rabenseifner(self, p, n, root_frac):
        root = int(root_frac * p)
        assert_clean("reduce_rabenseifner", p, root, n)

    @settings(max_examples=60, deadline=None)
    @given(p=p_strategy, n=n_strategy, root_frac=st.floats(0, 0.999))
    def test_reduce_ring(self, p, n, root_frac):
        root = int(root_frac * p)
        assert_clean("reduce_ring", p, root, n)

    @settings(max_examples=40, deadline=None)
    @given(p=p_strategy, n=n_strategy)
    def test_allreduce_variants(self, p, n):
        assert_clean("allreduce_short", p, 0, n)
        if p & (p - 1) == 0:
            assert_clean("allreduce_long", p, 0, n)
        assert_clean("allreduce_ring", p, 0, n)

    @settings(max_examples=40, deadline=None)
    @given(p=p_strategy, n=n_strategy)
    def test_allgather_ring(self, p, n):
        assert_clean("allgather_ring", p, 0, n)

    @settings(max_examples=30, deadline=None)
    @given(p=p_strategy)
    def test_barrier(self, p):
        assert_clean("barrier", p, 0, 0)


class TestTinyMessages:
    """Segment-splitting algorithms in the ``n < p`` regime.

    When the element count is smaller than the process count (including the
    extreme ``n == 1``), most ranks own an *empty* segment — every bound in
    the recursive-halving / ring arithmetic degenerates.  These pin that the
    long-message generators the selectors pick for each ``p`` (halving at
    powers of two, the ring elsewhere) stay pairable and deliver correct
    data there, across prime (worst-case non-power-of-two) process counts.
    """

    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

    @staticmethod
    def _long_generators(p):
        if p & (p - 1) == 0:
            return "allreduce_long", "reduce_rabenseifner"
        return "allreduce_ring", "reduce_ring"

    @pytest.mark.parametrize("p", PRIMES)
    def test_fewer_elements_than_ranks(self, p):
        allreduce, reduce = self._long_generators(p)
        for n in sorted({0, 1, 2, p // 2, p - 1}):
            assert_clean("allgather_ring", p, 0, n)
            assert_clean(allreduce, p, 0, n)
            for root in sorted({0, p // 2, p - 1}):
                assert_clean(reduce, p, root, n)

    @pytest.mark.parametrize("p", PRIMES)
    def test_single_element(self, p):
        allreduce, reduce = self._long_generators(p)
        assert_clean("allgather_ring", p, 0, 1)
        assert_clean(allreduce, p, 0, 1)
        assert_clean(reduce, p, p - 1, 1)

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_long_message_data_correct(self, p, n):
        """Force the long-message algorithms end-to-end with n < p."""
        import numpy as np

        from repro.mpi import World
        from repro.netmodel import NetworkParams, block_placement

        params = NetworkParams(long_message_threshold=0)
        world = World(block_placement(p, 1), params=params)

        def program(env):
            comm = env.view(world.comm_world)
            res = yield from comm.allreduce(np.full(n, float(comm.rank + 1)))
            assert np.array_equal(res, np.full(n, p * (p + 1) / 2.0))

        world.spawn_all(program, ranks=range(p))
        world.run()


class TestVolumes:
    """Total communicated volume matches the textbook algorithm costs."""

    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_bcast_long_volume_pow2(self, p):
        n = 1 << 14
        total = total_send_volume(lambda me: bcast_long(p, 0, me, n), p, n)
        # Binomial scatter moves n/2 per tree level (forwarding included):
        # n*log2(p)/2 total; ring allgather: each rank sends (p-1)n/p.
        expected = n * int(math.log2(p)) // 2 + p * ((p - 1) * n // p)
        assert abs(total - expected) <= p * p  # integer-split slack

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_rabenseifner_per_rank_volume(self, p):
        n = 1 << 14
        # Non-root, power-of-two: each rank sends (p-1)n/p in the RS phase
        # plus its owned segment in the gather.
        sched = reduce_rabenseifner(p, 0, 1, n)
        vol = schedule_volume_bytes(sched, 1)
        assert vol <= 2 * (p - 1) * n / p + p

    @pytest.mark.parametrize("p", [3, 5, 6, 7, 12])
    def test_ring_reduce_scatter_no_fold_penalty(self, p):
        n = 1 << 14
        # Ring RS sends exactly (p-1) segments per rank; binomial gather adds
        # at most the rank's accumulated range.
        for me in range(p):
            vol = schedule_volume_bytes(reduce_ring(p, 0, me, n), 1)
            assert vol <= 2 * n  # never ships multiple full copies

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8, 9])
    def test_bcast_binomial_volume(self, p):
        n = 1000
        total = total_send_volume(lambda me: bcast_binomial(p, 0, me, n), p, n)
        assert total == (p - 1) * n  # one full copy per non-root rank

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8, 9])
    def test_reduce_binomial_volume(self, p):
        n = 1000
        total = total_send_volume(lambda me: reduce_binomial(p, 0, me, n), p, n)
        assert total == (p - 1) * n

    def test_barrier_is_zero_bytes(self):
        for p in (2, 3, 8, 13):
            for me in range(p):
                assert schedule_volume_bytes(barrier_dissemination(p, 0, me, 0)) == 0


class TestRoundCounts:
    """Latency terms: the round counts the paper's models assume."""

    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_binomial_rounds(self, p):
        assert len(bcast_binomial(p, 0, 0, 10)) == int(math.log2(p))

    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_rabenseifner_rounds_pow2(self, p):
        # log2 p reduce-scatter + log2 p gather rounds (no fold round).
        assert len(reduce_rabenseifner(p, 0, 0, 1024)) == 2 * int(math.log2(p))

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_bcast_long_rounds(self, p):
        # scatter (log2 p) + ring allgather (p - 1).
        assert len(bcast_long(p, 0, 0, 1024)) == int(math.log2(p)) + p - 1

    @pytest.mark.parametrize("p", [3, 5, 9])
    def test_ring_reduce_rounds(self, p):
        T = (p - 1).bit_length()
        assert len(reduce_ring(p, 0, 0, 1024)) == (p - 1) + T

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 16])
    def test_barrier_rounds(self, p):
        assert len(barrier_dissemination(p, 0, 0, 0)) == (p - 1).bit_length()


class TestArgumentValidation:
    def test_bad_rank(self):
        with pytest.raises(ValueError):
            bcast_binomial(4, 0, 4, 10)

    def test_bad_root(self):
        with pytest.raises(ValueError):
            bcast_long(4, 7, 0, 10)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            reduce_ring(0, 0, 0, 10)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            allgather_ring(4, 0, 0, -1)
