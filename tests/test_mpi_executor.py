"""Focused tests for the collective schedule executor's timing mechanics."""

import numpy as np
import pytest

from repro.mpi.collectives.executor import ScheduleRunner
from repro.mpi.collectives.plan import CollectivePlan
from repro.mpi import World
from repro.netmodel import NetworkParams, block_placement
from repro.util import KIB, MIB

from tests.conftest import run_program


def make_world_with(params=None, n=2, ppn=1):
    return World(block_placement(n, ppn), params=params)


class TestRunnerBasics:
    def test_empty_schedule_completes_immediately(self):
        world = make_world_with()
        runner = ScheduleRunner(world, world.comm_world, 0, ("c", 0),
                                CollectivePlan.from_schedule([], 1),
                                None, 1, blocking=True)
        ev = runner.start()
        assert ev.fired

    def test_double_start_rejected(self):
        world = make_world_with()
        runner = ScheduleRunner(world, world.comm_world, 0, ("c", 0),
                                CollectivePlan.from_schedule([], 1),
                                None, 1, blocking=False)
        runner.start()
        with pytest.raises(RuntimeError):
            runner.start()

    def test_empty_rounds_are_free(self):
        world = make_world_with()
        sched = [[], [], []]
        runner = ScheduleRunner(world, world.comm_world, 0, ("c", 1),
                                CollectivePlan.from_schedule(sched, 1),
                                None, 1, blocking=True)
        ev = runner.start()
        world.engine.run()
        assert ev.fired and ev.fire_time == 0.0


class TestRoundGapPolicy:
    def _paired_schedules(self, nbytes):
        # Two ranks exchange `nbytes` in each of 3 rounds.
        s0 = [[("send", 1, 0, nbytes), ("copy", 1, 0, nbytes)] for _ in range(3)]
        s1 = [[("send", 0, 0, nbytes), ("copy", 0, 0, nbytes)] for _ in range(3)]
        return s0, s1

    def _run(self, nbytes, blocking, gap):
        params = NetworkParams(blocking_round_gap=gap)
        world = make_world_with(params)
        s0, s1 = self._paired_schedules(nbytes)
        r0 = ScheduleRunner(world, world.comm_world, 0, ("c", 0),
                            CollectivePlan.from_schedule(s0, 1), None, 1, blocking)
        r1 = ScheduleRunner(world, world.comm_world, 1, ("c", 0),
                            CollectivePlan.from_schedule(s1, 1), None, 1, blocking)
        e0, e1 = r0.start(), r1.start()
        world.engine.run()
        assert e0.fired and e1.fired
        return world.engine.now

    def test_gap_applies_to_large_blocking_rounds(self):
        big = 1 * MIB
        with_gap = self._run(big, blocking=True, gap=1e-3)
        without = self._run(big, blocking=True, gap=0.0)
        assert with_gap == pytest.approx(without + 2e-3, rel=1e-6)

    def test_gap_skipped_for_eager_rounds(self):
        small = 1 * KIB  # below the rendezvous threshold
        with_gap = self._run(small, blocking=True, gap=1e-3)
        without = self._run(small, blocking=True, gap=0.0)
        assert with_gap == pytest.approx(without)

    def test_gap_never_applies_to_nonblocking(self):
        big = 1 * MIB
        with_gap = self._run(big, blocking=False, gap=1e-3)
        without = self._run(big, blocking=False, gap=0.0)
        assert with_gap == pytest.approx(without)


class TestProgressCosts:
    def test_combine_charged_on_progress_engine(self):
        params = NetworkParams()
        world = make_world_with(params)
        n = 2 * MIB
        s0 = [[("send", 1, 0, n)]]
        s1 = [[("add", 0, 0, n)]]
        r0 = ScheduleRunner(world, world.comm_world, 0, ("c", 0),
                            CollectivePlan.from_schedule(s0, 1), None, 1, False)
        r1 = ScheduleRunner(world, world.comm_world, 1, ("c", 0),
                            CollectivePlan.from_schedule(s1, 1), None, 1, False)
        r0.start(); e1 = r1.start()
        world.engine.run()
        busy = world.progress_of(1).total_busy
        assert busy == pytest.approx(n / params.combine_bandwidth)
        assert e1.fire_time >= busy

    def test_staging_copy_charged_for_copy_ops(self):
        params = NetworkParams()
        world = make_world_with(params)
        n = 2 * MIB
        s0 = [[("send", 1, 0, n)]]
        s1 = [[("copy", 0, 0, n)]]
        r0 = ScheduleRunner(world, world.comm_world, 0, ("c", 0),
                            CollectivePlan.from_schedule(s0, 1), None, 1, False)
        r1 = ScheduleRunner(world, world.comm_world, 1, ("c", 0),
                            CollectivePlan.from_schedule(s1, 1), None, 1, False)
        r0.start(); r1.start()
        world.engine.run()
        assert world.progress_of(1).total_busy == pytest.approx(
            n / params.round_copy_bandwidth
        )

    def test_real_data_combine_adds(self):
        world = make_world_with()
        n = 5000
        buf0 = np.full(n, 2.0)
        buf1 = np.full(n, 1.0)
        s0 = [[("send", 1, 0, n)]]
        s1 = [[("add", 0, 0, n)]]
        r0 = ScheduleRunner(world, world.comm_world, 0, ("c", 0),
                            CollectivePlan.from_schedule(s0, 8), buf0, 8, False)
        r1 = ScheduleRunner(world, world.comm_world, 1, ("c", 0),
                            CollectivePlan.from_schedule(s1, 8), buf1, 8, False)
        r0.start(); r1.start()
        world.engine.run()
        assert np.all(buf1 == 3.0)
        assert np.all(buf0 == 2.0)  # sender unchanged

    def test_two_add_round_sums_both_ranges(self):
        """A round with two adds from two peers sums each range and charges
        one combine task per add on the receiver's progress engine."""
        params = NetworkParams()
        world = World(block_placement(3, 1), params=params, trace=True)
        n = 4000
        buf0 = np.full(2 * n, 1.0)
        buf1 = np.full(2 * n, 2.0)
        buf2 = np.full(2 * n, 5.0)
        s0 = [[("add", 1, 0, n), ("add", 2, n, 2 * n)]]
        s1 = [[("send", 0, 0, n)]]
        s2 = [[("send", 0, n, 2 * n)]]
        runners = [
            ScheduleRunner(world, world.comm_world, r, ("c", 0),
                           CollectivePlan.from_schedule(s, 8), b, 8, False)
            for r, s, b in ((0, s0, buf0), (1, s1, buf1), (2, s2, buf2))
        ]
        e0 = runners[0].start()
        for r in runners[1:]:
            r.start()
        world.engine.run()
        assert e0.fired
        assert np.all(buf0[:n] == 3.0)
        assert np.all(buf0[n:] == 6.0)
        combines = [s for s in world.trace.by_label("progress:coll:add")
                    if s.rank == 0]
        assert len(combines) == 2
        assert world.progress_of(0).total_busy == pytest.approx(
            2 * n * 8 / params.combine_bandwidth)

    def test_aliased_send_snapshots_buffer(self):
        """A send overlapped by a same-round receive must ship a snapshot.

        Full-buffer swap: each rank both sends and receives [0, n).  The
        plan's may-alias bit forces a private copy, so whichever delivery
        lands first cannot corrupt the other rank's in-flight payload.
        """
        world = make_world_with()
        n = 1000
        buf0 = np.full(n, 7.0)
        buf1 = np.full(n, 1.0)
        s0 = [[("send", 1, 0, n), ("copy", 1, 0, n)]]
        s1 = [[("send", 0, 0, n), ("copy", 0, 0, n)]]
        r0 = ScheduleRunner(world, world.comm_world, 0, ("c", 0),
                            CollectivePlan.from_schedule(s0, 8), buf0, 8, False)
        r1 = ScheduleRunner(world, world.comm_world, 1, ("c", 0),
                            CollectivePlan.from_schedule(s1, 8), buf1, 8, False)
        r0.start(); r1.start()
        world.engine.run()
        assert np.all(buf0 == 1.0)
        assert np.all(buf1 == 7.0)

    def test_alias_free_send_is_zero_copy(self):
        """Sends with no overlapping same/later-round receive pass a view."""
        swap = CollectivePlan.from_schedule(
            [[("send", 1, 0, 1000), ("copy", 1, 0, 1000)]], 8
        )
        assert [op[5] for op in swap.rounds[0]] == [True, False]
        disjoint = CollectivePlan.from_schedule(
            [[("send", 1, 0, 500), ("copy", 1, 500, 1000)]], 8
        )
        assert [op[5] for op in disjoint.rounds[0]] == [False, False]
        # An earlier-round receive completed before the send posts: no copy.
        earlier = CollectivePlan.from_schedule(
            [[("copy", 1, 0, 1000)], [("send", 1, 0, 1000)]], 8
        )
        assert earlier.rounds[1][0][5] is False
        # ...but a *later*-round receive does force the snapshot.
        later = CollectivePlan.from_schedule(
            [[("send", 1, 0, 1000)], [("copy", 1, 0, 1000)]], 8
        )
        assert later.rounds[0][0][5] is True
