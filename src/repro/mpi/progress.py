"""Per-process MPI progress engine.

Real MPI libraries advance nonblocking collectives from a single execution
context per process (the main thread inside MPI calls, or one progress
thread).  Consequently the *local processing* of overlapped nonblocking
operations — most importantly the per-round summation work of MPI_Ireduce —
is serialized within a process, while processes on the same node progress in
parallel.  This asymmetry is exactly why the paper's Fig. 6 finds 4-PPN
overlap faster than nonblocking overlap for reductions but not for
broadcasts.

:class:`ProgressEngine` models that context as a FIFO work queue: tasks run
back-to-back in submission order, one at a time.
"""

from __future__ import annotations

from repro.sim.engine import Engine, SimEvent
from repro.sim.faults import FaultPlan
from repro.sim.trace import SpanKind, Trace


class ProgressEngine:
    """FIFO serializer for one process's MPI-internal processing."""

    __slots__ = ("engine", "rank", "trace", "busy_until", "total_busy", "faults")

    def __init__(self, engine: Engine, rank: int, trace: Trace | None = None,
                 faults: FaultPlan | None = None):
        self.engine = engine
        self.rank = rank
        self.trace = trace
        self.faults = faults
        self.busy_until = 0.0
        self.total_busy = 0.0

    def _rec_track(self, duration: float):
        """Recording: this submission as a task node of the event graph.

        ``finish = max(arrival, busy_until) + duration`` depends on which
        submissions reached the queue first, and new constants may reorder
        them — so the graph keeps only (queue, arrival, duration) and the
        replayer serves the queue itself, as :meth:`submit_cb` does.
        """
        eng = self.engine
        rec = eng.recorder
        if self.faults is not None:
            rec.invalidate("fault plan dilates progress work")
        return rec.task(self.rank, eng._rec_now(), duration)

    def submit(self, duration: float, label: str = "combine") -> SimEvent:
        """:meth:`submit_cb` firing a returned event when the work is done."""
        ev = self.engine.event("progress")
        self.submit_cb(duration, label, ev.succeed)
        return ev

    def submit_cb(self, duration: float, label: str, fn, *args) -> None:
        """Enqueue ``duration`` seconds of processing; ``fn(*args)`` runs
        when it is done.

        Zero-duration tasks complete immediately if the engine is idle (no
        event round-trip), keeping barrier-like bookkeeping free.  Straggler
        windows of an attached FaultPlan dilate the queued work: the task
        still occupies the single progress context, just for longer.
        """
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        now = self.engine.now
        start = max(now, self.busy_until)
        if self.faults is not None and duration > 0:
            finish = self.faults.compute_finish(self.rank, start, duration)
        else:
            finish = start + duration
        self.busy_until = finish
        self.total_busy += finish - start
        if self.trace is not None and self.trace.enabled and duration > 0:
            self.trace.add(self.rank, start, finish, SpanKind.COMPUTE,
                           f"progress:{label}")
        rec = self.engine.recorder
        if rec is None:
            if finish <= now:
                fn(*args)
            else:
                self.engine.schedule_at(finish, fn, *args)
            return
        finish_node = self._rec_track(duration)
        if finish <= now:
            saved = self.engine._rec_ctx
            self.engine._rec_ctx = finish_node
            fn(*args)
            self.engine._rec_ctx = saved
        else:
            self.engine._rec_pending = finish_node
            self.engine.schedule_at(finish, fn, *args)

    def idle_at(self, t: float) -> bool:
        """True if the queue has drained by time ``t``."""
        return self.busy_until <= t
