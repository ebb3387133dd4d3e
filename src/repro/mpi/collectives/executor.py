"""Engine-driven execution of collective schedules.

One :class:`ScheduleRunner` executes one rank's schedule for one collective
operation.  It is *not* a generator: rounds are chained by the callbacks
of the transport's ``post_send_cb`` / ``post_recv_cb`` (a
collective-internal message allocates no request and no event), so a
nonblocking collective progresses while the owning rank computes or posts
other operations (the MPI-3 progress semantics the paper's "nonblocking
overlap" technique depends on).

Timing semantics
----------------
* All of a round's sends and receives are posted together; the round
  finishes when every send has completed, every receive has arrived, and
  every reduction combine queued on the rank's progress engine has drained.
  Rounds where this rank has no op are skipped without posting anything.
* ``blocking=True`` inserts ``NetworkParams.blocking_round_gap`` before each
  round after the first: a blocking collective synchronizes at round
  boundaries (it cannot pre-post the next round), while a pre-posted
  nonblocking schedule chains rounds immediately.  This asymmetry is what
  makes four overlapped ``MPI_Ibcast`` faster than four per-process blocking
  broadcasts of the same total volume (paper Fig. 6, bottom).
* ``add`` ops submit ``bytes / combine_bandwidth`` seconds to the rank's
  FIFO progress engine — overlapped nonblocking reductions therefore
  *serialize* their summation work per process (paper Fig. 6, top).

Data semantics (correctness mode): send ops pass a zero-copy view of their
range unless the plan's static may-alias bit demands a snapshot (see
:mod:`repro.mpi.collectives.plan`), ``copy`` stores, ``add`` accumulates;
with ``buf=None`` only sizes are simulated and sends carry the symbolic
:data:`~repro.mpi.collectives.plan.SIZE_ONLY` payload instead of touching
numpy at all.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.collectives.plan import SIZE_ONLY, CollectivePlan
from repro.sim.engine import SimEvent


class ScheduleRunner:
    """Executes one rank's rounds of one collective operation."""

    __slots__ = ("world", "comm", "me_global", "tag", "plan", "buf",
                 "itemsize", "blocking", "done", "_stage_label", "_add_label",
                 "_round", "_pending", "_started", "_rec_acc")

    def __init__(
        self,
        world,
        comm,
        me_local: int,
        tag,
        schedule,
        buf,
        itemsize: int,
        blocking: bool,
        label: str = "coll",
    ):
        self.world = world
        self.comm = comm
        self.me_global = comm.ranks[me_local]
        self.tag = tag
        if isinstance(schedule, CollectivePlan):
            plan = schedule
        else:  # raw list-of-rounds schedule from outside the plan cache
            plan = CollectivePlan.from_schedule(schedule, itemsize)
        self.plan = plan
        self.buf = buf
        self.itemsize = int(itemsize)
        self.blocking = blocking
        # Static event name ("coll" surfaces only in engine error messages).
        self.done: SimEvent = world.engine.event("coll")
        # Progress-task labels surface only in trace spans: untraced runs
        # skip the per-runner string building.
        if world.trace.enabled:
            self._stage_label = f"{label}:stage"
            self._add_label = f"{label}:add"
        else:
            self._stage_label = self._add_label = label
        self._round = 0
        self._pending = 0
        self._started = False
        self._rec_acc = None  # recording: join of this round's completions

    # -- driving -----------------------------------------------------------------

    def start(self) -> SimEvent:
        """Begin executing rounds; returns the completion event."""
        if self._started:
            raise RuntimeError("ScheduleRunner started twice")
        self._started = True
        if self.world.verify_plans and self.plan.key is not None:
            # Opt-in debug gate: statically prove the whole cross-rank plan
            # set sound before executing it (memoized per plan key).  Raw
            # schedules (key=None) have no registry set to rebuild; the raw
            # entry points are covered by verify_plan_set in tests instead.
            from repro.analysis.schedule import assert_plan_sound

            assert_plan_sound(self.plan)
        self._advance()
        return self.done

    def _advance(self) -> None:
        """Run rounds until one has pending completions (or all are done)."""
        plan = self.plan
        rounds = plan.rounds
        while self._round < len(rounds):
            i = self._round
            if not rounds[i]:  # this rank idles in the round (tree schedules)
                self._round += 1
                continue
            if self.blocking and i:
                # Blocking rounds synchronize (rendezvous / arrival skew)
                # before each round after the first; rounds that move only
                # eager-sized messages complete without the gap (small
                # blocking collectives are latency-bound, not skew-bound).
                params = self.world.params
                gap = params.blocking_round_gap
                if (plan.round_max_nbytes[i] > params.rendezvous_threshold
                        and gap > 0.0):
                    self.world.engine.schedule_after(gap, self._run_after_gap,
                                                     i)
                    return
            if not self._run_round(i):
                return
        self.done.succeed(None)

    def _run_after_gap(self, i: int) -> None:
        if self._run_round(i):
            self._advance()

    def _run_round(self, i: int) -> bool:
        """Post round ``i``; True if it also completed synchronously."""
        world = self.world
        transport = world.transport
        cid = self.comm.cid
        buf = self.buf
        ranks = self.comm.ranks
        me = self.me_global
        tag = self.tag
        channel = self.comm.channel  # fabric lane of every round's sends
        # A send's completion joins the posting context (None when not
        # recording), as any callback registered at post time does; recorded
        # graphs keep that node structure (pinned in test_replay_storage).
        post = world.engine._rec_ctx
        # Each op is counted before it is posted (its callback may run
        # inside the post); the extra 1 guards against the round completing
        # while it is still being posted.
        self._pending = 1
        for kind, peer_local, lo, hi, nbytes, needs_copy in self.plan.rounds[i]:
            self._pending += 1
            if kind == "send":
                if buf is None:
                    data = SIZE_ONLY
                elif needs_copy:
                    data = np.array(buf[lo:hi])  # snapshot: a later receive
                    # on this rank overlaps the range (plan may-alias bit)
                else:
                    data = buf[lo:hi]  # zero-copy view: provably alias-free
                transport.post_send_cb(cid, me, ranks[peer_local], tag, nbytes,
                                       data, channel, self._complete_one, post)
            elif kind == "copy":
                transport.post_recv_cb(cid, me, ranks[peer_local], tag,
                                       self._copy_arrived, lo, hi)
            elif kind == "add":
                transport.post_recv_cb(cid, me, ranks[peer_local], tag,
                                       self._add_arrived, lo, hi)
            else:  # pragma: no cover - schedules are validated
                raise ValueError(f"unknown op kind {kind!r}")
        self._pending -= 1
        if self._pending > 0:
            return False
        rec = world.engine.recorder
        if rec is not None and self._rec_acc is not None:
            # The round ends at the max over its completions' instants: the
            # next round (or the done event) chains from that join.
            world.engine._rec_ctx = rec.join2(self._rec_acc,
                                              world.engine._rec_ctx)
            self._rec_acc = None
        self._round += 1
        return True

    def _copy_arrived(self, lo: int, hi: int, value) -> None:
        if value is not SIZE_ONLY and self.buf is not None:
            self.buf[lo:hi] = value
        # Stage the received bytes through the internal buffer (pack/unpack)
        # on the process's progress engine.
        copy_bytes = (hi - lo) * self.itemsize
        if copy_bytes > 0:
            self.world.progress_of(self.me_global).submit_cb(
                copy_bytes / self.world.params.round_copy_bandwidth,
                self._stage_label, self._complete_one,
            )
        else:
            self._complete_one()

    def _add_arrived(self, lo: int, hi: int, value) -> None:
        if value is SIZE_ONLY:
            value = None  # symbolic payload from a sizes-only sender
        combine_bytes = (hi - lo) * self.itemsize
        if self.buf is not None and value is not None:
            dst = self.buf[lo:hi]
            np.add(dst, value, out=dst)
        if combine_bytes > 0:
            self.world.progress_of(self.me_global).submit_cb(
                combine_bytes / self.world.params.combine_bandwidth,
                self._add_label, self._complete_one,
            )
        else:
            self._complete_one()

    def _complete_one(self, post=None) -> None:
        """One op of the round in flight is done; ``post`` is the posting
        context a send's completion joins (recording only)."""
        eng = self.world.engine
        rec = eng.recorder
        if rec is not None:
            self._rec_acc = rec.join2(self._rec_acc,
                                      rec.join2(eng._rec_ctx, post))
        self._pending -= 1
        if self._pending == 0:
            if rec is not None:
                eng._rec_ctx = self._rec_acc  # includes the current instant
                self._rec_acc = None
            self._round += 1
            self._advance()
