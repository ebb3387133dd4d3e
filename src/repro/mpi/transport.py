"""Point-to-point message matching and transfer protocols.

Messages are matched by ``(communicator id, destination, source, tag)`` in
FIFO order — MPI's non-overtaking rule for identical envelopes.  Two
protocols, switched on message size exactly like a real MPI library:

eager (``nbytes <= rendezvous_threshold``)
    The payload is shipped immediately; the send completes locally (the
    caller charges the internal-buffer copy).  If the receive is posted
    late, the message waits in the unexpected queue.

rendezvous (large messages)
    Data moves only after both sides have posted (synchronization overhead
    the paper lists as reason (a) for poor bandwidth utilization); the
    handshake adds ``rendezvous_extra`` latency and the send completes with
    the transfer.

The transport is *engine-driven*: one implementation, two entry forms.
``post_send_cb`` / ``post_recv_cb`` run a completion callback ``fn(*args)``
(a receive appends the payload) and allocate only the message's own state —
the collective executor posts every op this way.  ``post_send`` /
``post_recv`` wrap them for user-level ``isend``/``irecv``: they allocate a
:class:`~repro.mpi.requests.Request` and complete it from that callback.
The callback runs after matching for an eager send, with the wire transfer
for a rendezvous send, and at delivery (``max(arrival, recv post)`` in a
recorded graph) for a receive.

Fault injection: when the world carries a
:class:`~repro.sim.faults.FaultPlan`, every payload transmission (the eager
ship and the rendezvous transfer alike) first asks the plan whether it is
dropped on the wire.  A dropped attempt is retransmitted after a timeout
with bounded exponential backoff (:class:`~repro.sim.faults.RetryPolicy`);
exhausting the retry budget raises — an undeliverable message is a
liveness bug in the scenario, not something to hang on.  MPI semantics are
preserved: an eager send still completes locally at post time (the loss is
absorbed by the library's retransmission, invisible to the sender), and
matching order is untouched because drops delay only the payload, never the
envelope.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.requests import Request
from repro.sim.engine import SimEvent, SimulationError
from repro.sim.trace import SpanKind


class _SendState:
    __slots__ = ("src", "dst", "nbytes", "data", "eager", "fn", "args",
                 "arrived", "recv", "attempt", "rec_post", "rec_arr",
                 "channel", "op")

    def __init__(self, src, dst, nbytes, data, eager, fn, args, channel, op):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.data = data
        self.eager = eager
        self.fn = fn               # completion callback fn(*args)
        self.args = args
        self.channel = channel     # fabric lane of the payload transfer
        self.op = op               # (cid, tag) operation key (flow-log
        #                            attribution: one collective instance or
        #                            one p2p envelope stream per key)
        self.arrived = False       # eager payload landed before recv posted
        self.recv: _RecvState | None = None
        self.attempt = 0           # dropped-transmission retry counter
        self.rec_post = None       # recording: graph node of the send post
        self.rec_arr = None        # recording: graph node of payload arrival


class _RecvState:
    """A posted receive: delivery calls ``fn(*args, payload)``."""

    __slots__ = ("fn", "args", "rec_post")

    def __init__(self, fn, args, rec_post):
        self.fn = fn
        self.args = args
        self.rec_post = rec_post   # recording: graph node of the recv post


class Transport:
    """World-wide p2p matching engine (one instance per :class:`World`)."""

    def __init__(self, world):
        self.world = world
        self._engine = world.engine
        self._params = world.params
        # key -> FIFO of pending _RecvStates / unmatched _SendStates.  Keys
        # leave with their last entry (collective tags are never reused),
        # and a queue rarely holds more than one entry, so it is a list.
        self._recv_q: dict[tuple, list] = {}
        self._send_q: dict[tuple, list] = {}
        # Request labels, interned per peer rank: the f-string cost is per
        # distinct peer, not per message (labels surface in WAIT spans).
        self._send_labels: dict[int, str] = {}
        self._recv_labels: dict[int, str] = {}
        # Fault-injection bookkeeping (stays zero without a FaultPlan).
        self.dropped_transmissions = 0
        self.retransmissions = 0

    # -- posting ---------------------------------------------------------------

    def post_send_cb(self, cid: int, src: int, dst: int, tag, nbytes: int,
                     data: Any, channel: int, fn, *args) -> None:
        """Post a send of ``nbytes`` from global rank ``src`` to ``dst``;
        ``fn(*args)`` runs when it completes per the protocol rules above.

        ``data`` is an arbitrary payload delivered to the matching receive
        (``None`` in modeled-size-only runs).  ``channel`` selects the
        fabric lane the payload transfer shares bandwidth on (matching is
        channel-blind — the communicator id already isolates envelopes).
        """
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        eager = nbytes <= self._params.rendezvous_threshold
        state = _SendState(src, dst, nbytes, data, eager, fn, args, channel,
                           (cid, tag))
        rec = self._engine.recorder
        if rec is not None:
            state.rec_post = self._engine._rec_now()
        if eager:
            self._transmit(state)  # ship now; the sender is free once posted
        key = (cid, dst, src, tag)
        rq = self._recv_q.get(key)
        if rq is not None:
            state.recv = rq.pop(0)
            if not rq:
                del self._recv_q[key]
            if not eager:
                self._start_rendezvous(state)
        else:
            q = self._send_q.setdefault(key, [])
            if q and self.world.verifier is not None:
                self.world.verifier.on_envelope_collision(
                    "send", cid, src, dst, tag, nbytes)
            q.append(state)
        if eager:
            if rec is None:
                fn(*args)
            else:
                self._run_in(state.rec_post, fn, args)

    def post_recv_cb(self, cid: int, dst: int, src: int, tag, fn,
                     *args) -> None:
        """Post a receive at global rank ``dst`` for (``src``, ``tag``);
        delivery calls ``fn(*args, payload)``."""
        engine = self._engine
        recv = _RecvState(fn, args, None if engine.recorder is None
                          else engine._rec_now())
        key = (cid, dst, src, tag)
        sq = self._send_q.get(key)
        if sq is not None:
            state = sq.pop(0)
            if not sq:
                del self._send_q[key]
            state.recv = recv
            if not state.eager:
                self._start_rendezvous(state)
            elif state.arrived:
                self._deliver(state)
            # else: the eager flow's completion delivers.
        else:
            q = self._recv_q.setdefault(key, [])
            if q and self.world.verifier is not None:
                self.world.verifier.on_envelope_collision(
                    "recv", cid, src, dst, tag, 0)
            q.append(recv)

    def post_send(self, cid: int, src: int, dst: int, tag, nbytes: int,
                  data: Any = None, channel: int = 0) -> Request:
        """:meth:`post_send_cb` completing a returned :class:`Request`."""
        label = self._send_labels.get(dst)
        if label is None:
            label = self._send_labels[dst] = f"send->r{dst}"
        req = Request(self.world, src, label, SimEvent(self._engine, "send"))
        self.post_send_cb(cid, src, dst, tag, nbytes, data, channel,
                          req.done.succeed)
        return req

    def post_recv(self, cid: int, dst: int, src: int, tag) -> Request:
        """:meth:`post_recv_cb` completing a returned :class:`Request`."""
        label = self._recv_labels.get(src)
        if label is None:
            label = self._recv_labels[src] = f"recv<-r{src}"
        req = Request(self.world, dst, label, SimEvent(self._engine, "recv"))
        self.post_recv_cb(cid, dst, src, tag, req.complete)
        return req

    # -- protocol internals ------------------------------------------------------

    def _run_in(self, node, fn, args) -> None:
        """Recording: run ``fn(*args)`` with ``node`` as the causal context."""
        engine = self._engine
        saved = engine._rec_ctx
        engine._rec_ctx = node
        fn(*args)
        engine._rec_ctx = saved

    def _start_rendezvous(self, state: _SendState) -> None:
        """Both sides of a rendezvous message are posted: move the data."""
        rec = self._engine.recorder
        if rec is None:
            self._transmit(state)
        else:
            # The wire transfer starts at max(send post, recv post) under
            # any constants — a join, not "now".
            self._run_in(rec.join2(state.rec_post, state.recv.rec_post),
                         self._transmit, (state,))

    def _transmit(self, state: _SendState) -> None:
        """Put a payload on the wire; dropped attempts retry with backoff."""
        world = self.world
        faults = world.faults
        if faults is not None and faults.should_drop(
            state.src, state.dst, world.engine.now
        ):
            self.dropped_transmissions += 1
            state.attempt += 1
            retry = faults.retry
            if state.attempt > retry.max_attempts:
                raise SimulationError(
                    f"message r{state.src}->r{state.dst} ({state.nbytes}B) "
                    f"dropped {state.attempt} times; retry budget exhausted"
                )
            delay = retry.delay(state.attempt)
            self.retransmissions += 1
            world.trace.add(
                state.src, world.engine.now, world.engine.now + delay,
                SpanKind.MISC, f"drop+retry#{state.attempt}->r{state.dst}",
                nbytes=state.nbytes,
            )
            self._engine.schedule_after(delay, self._transmit, state)
            return
        # transfer_cb: completion invokes the bound method directly — no
        # per-message SimEvent on the fabric side (the hot-path fast lane).
        if state.eager:
            world.fabric.transfer_cb(
                state.src, state.dst, state.nbytes, 0.0,
                self._eager_arrived, state, channel=state.channel,
                op=state.op,
            )
        else:
            world.fabric.transfer_cb(
                state.src, state.dst, state.nbytes,
                self._params.rendezvous_extra,
                self._rendezvous_done, state, channel=state.channel,
                op=state.op,
            )

    def _eager_arrived(self, state: _SendState) -> None:
        if self._engine.recorder is not None:
            state.rec_arr = self._engine._rec_ctx  # the flow's graph node
        state.arrived = True
        if state.recv is not None:
            self._deliver(state)

    def _rendezvous_done(self, state: _SendState) -> None:
        if self._engine.recorder is None:
            state.fn(*state.args)
        else:
            state.rec_arr = self._engine._rec_ctx  # the flow's graph node
            self._run_in(state.rec_arr, state.fn, state.args)
        self._deliver(state)

    def _deliver(self, state: _SendState) -> None:
        recv = state.recv
        engine = self._engine
        rec = engine.recorder
        if rec is None:
            recv.fn(*recv.args, state.data)
        else:
            # Delivery happens at max(payload arrival, recv post): for a
            # late-posted eager recv "now" is the recv post, but under
            # perturbed constants either side may dominate.
            self._run_in(rec.join2(state.rec_arr, recv.rec_post), recv.fn,
                         recv.args + (state.data,))

    # -- diagnostics ----------------------------------------------------------------

    def pending_counts(self) -> tuple[int, int]:
        """(unmatched sends, unmatched recvs) — for deadlock diagnostics."""
        ns = sum(len(q) for q in self._send_q.values())
        nr = sum(len(q) for q in self._recv_q.values())
        return ns, nr

    def pending_details(self) -> tuple[list[dict], list[dict]]:
        """Unmatched traffic as (sends, recvs) envelope dicts, sorted.

        Each entry carries ``cid``/``src``/``dst``/``tag`` (and ``nbytes``
        for sends) — the RA104 exit check and deadlock reports are built on
        this instead of the bare counts.
        """
        sends = [
            {"cid": cid, "src": src, "dst": dst, "tag": tag,
             "nbytes": state.nbytes}
            for (cid, dst, src, tag), q in sorted(self._send_q.items())
            for state in q
        ]
        recvs = [
            {"cid": cid, "src": src, "dst": dst, "tag": tag}
            for (cid, dst, src, tag), q in sorted(self._recv_q.items())
            for _recv in q
        ]
        return sends, recvs

    def fault_stats(self) -> dict:
        """Drop/retry counters accumulated under an active FaultPlan."""
        return {
            "dropped_transmissions": self.dropped_transmissions,
            "retransmissions": self.retransmissions,
        }
