"""Request objects returned by nonblocking operations.

A :class:`Request` wraps a completion :class:`~repro.sim.engine.SimEvent`.
``yield from req.wait()`` suspends the calling rank until completion and
returns the operation's payload (the received data for receives, the result
buffer for collectives).  ``req.test()`` is the nonblocking completion probe
(the paper's §III-B PPN-gating mechanism polls with MPI_Test + usleep).

Empty-list conventions (MPI-conformant, pinned by tests):

* ``waitall([])`` completes immediately and returns ``[]`` — MPI_Waitall
  with ``count == 0`` is a no-op;
* ``waitany([])`` raises :class:`ValueError` — MPI_Waitany of zero requests
  can never complete, so an empty list is always a program bug.  When a
  :class:`~repro.analysis.verifier.CommVerifier` is active the call site is
  additionally reported as an ``RA107`` finding.

When the owning world carries a verifier, every completion path
(``wait``/``test``/``waitall``/``waitany``) reports which requests it
consumed — the request-leak check (``RA102``) and the deadlock reporter
(``RA106``) are built on those notifications.  The hooks are passive and
never touch the virtual clock.
"""

from __future__ import annotations

from typing import Any

from repro.sim.engine import SimEvent
from repro.sim.process import AnyOf
from repro.sim.trace import SpanKind


def _record_wait_span(world, rank: int, t0: float, label: str) -> None:
    """The shared WAIT-span bookkeeping of wait/waitall/waitany."""
    t1 = world.engine.now
    if t1 > t0 and world.trace.enabled:
        world.trace.add(rank, t0, t1, SpanKind.WAIT, label)


class Request:
    """Handle for an in-flight nonblocking operation."""

    __slots__ = ("world", "rank", "label", "done", "_result")

    def __init__(self, world, rank: int, label: str, done: SimEvent):
        self.world = world
        self.rank = rank
        self.label = label
        self.done = done
        self._result: Any = None

    def set_result(self, value: Any) -> None:
        """Record the value :meth:`wait` will return (set by the layer below)."""
        self._result = value

    def complete(self, value: Any) -> None:
        """Set the result and fire the completion event (a receive landed)."""
        self._result = value
        self.done.succeed(value)

    @property
    def result(self) -> Any:
        return self._result

    def test(self) -> bool:
        """Nonblocking completion check (MPI_Test).

        A ``True`` return completes the request (MPI_Test semantics): the
        verifier, if any, stops considering it leaked.
        """
        engine = self.world.engine
        if engine.recorder is not None:
            # Poll results are timing-dependent control flow (the PPN-gating
            # loop acts on them), so the recorded graph cannot be replayed.
            engine.recorder.invalidate("Request.test polling")
        fired = self.done.fired
        if fired:
            v = self.world.verifier
            if v is not None:
                v.mark_consumed(self)
        return fired

    def wait(self):
        """Generator: suspend until completion; returns the payload (MPI_Wait)."""
        v = self.world.verifier
        t0 = self.world.engine.now
        if not self.done.fired:
            if v is not None:
                v.on_wait_begin(self.rank, (self,), f"wait {self.label}")
            yield self.done
            if v is not None:
                v.on_wait_end(self.rank)
        elif self.world.engine.recorder is not None:
            # Skipped wait: under perturbed constants the completion may be
            # the later instant — record the dependency anyway.
            self.world.engine._rec_join_fired(self.done)
        if v is not None:
            v.mark_consumed(self)
        world = self.world
        # Build the span label only when it will actually be recorded — the
        # f-string is measurable overhead in trace-off benchmark sweeps.
        if world.engine.now > t0 and world.trace.enabled:
            world.trace.add(
                self.rank, t0, world.engine.now, SpanKind.WAIT,
                f"wait {self.label}",
            )
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done.fired else "pending"
        return f"<Request {self.label!r} r{self.rank} {state}>"


def waitall(requests: list[Request]):
    """Generator: wait for every request; returns their payloads in order.

    ``waitall([])`` returns ``[]`` immediately.  Records a single WAIT span
    covering the whole MPI_Waitall.
    """
    if not requests:
        return []
    world = requests[0].world
    rank = requests[0].rank
    v = world.verifier
    label = f"waitall[{len(requests)}]"
    t0 = world.engine.now
    if v is not None:
        v.on_wait_begin(rank, requests, label)
    results = []
    engine = world.engine
    for req in requests:
        if not req.done.fired:
            yield req.done
        elif engine.recorder is not None:
            engine._rec_join_fired(req.done)
        if v is not None:
            v.mark_consumed(req)
        results.append(req.result)
    if v is not None:
        v.on_wait_end(rank)
    _record_wait_span(world, rank, t0, label)
    return results


def waitany(requests: list[Request]):
    """Generator: wait until *one* request completes (MPI_Waitany).

    Returns ``(index, payload)`` of the first completion; already-completed
    requests win immediately (lowest index first, matching MPI).  Only the
    returned request counts as completed — the rest must still be waited.
    ``waitany([])`` raises :class:`ValueError` (and is reported as RA107
    when a verifier is active): an empty MPI_Waitany can never complete.
    """
    if not requests:
        from repro.analysis.verifier import note_empty_waitany

        note_empty_waitany()
        raise ValueError(
            "waitany needs at least one request (an empty MPI_Waitany can "
            "never complete; use waitall([]) for the empty case)"
        )
    world = requests[0].world
    rank = requests[0].rank
    v = world.verifier
    if world.engine.recorder is not None:
        world.engine.recorder.invalidate("waitany race")
    for idx, req in enumerate(requests):
        if req.done.fired:
            if v is not None:
                v.mark_consumed(req)
            return idx, req.result
    label = f"waitany[{len(requests)}]"
    t0 = world.engine.now
    if v is not None:
        v.on_wait_begin(rank, requests, label)
    idx, _value = yield AnyOf([r.done for r in requests])
    if v is not None:
        v.on_wait_end(rank)
        v.mark_consumed(requests[idx])
    _record_wait_span(world, rank, t0, label)
    return idx, requests[idx].result
