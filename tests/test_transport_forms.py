"""One per-message path: the transport's Request and callback forms agree.

``post_send`` / ``post_recv`` are thin wrappers over ``post_send_cb`` /
``post_recv_cb``; the collective executor uses only the callback forms.
These tests pin that the two forms are interchangeable message by message
(same payloads, same order, same virtual instants — also through the
unexpected queue, the rendezvous protocol and dropped transmissions) and
that a collective allocates no request or event per internal message.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import World
from repro.mpi.requests import Request
from repro.netmodel import NetworkParams, block_placement
from repro.sim.engine import SimEvent
from repro.sim.faults import FaultPlan, MessageDrop

RANKS = 4
THRESHOLD = NetworkParams().rendezvous_threshold
#: Zero-byte, eager, the inclusive eager boundary, the first rendezvous
#: size and a large rendezvous message.
SIZES = (0, 8, 4096, THRESHOLD, THRESHOLD + 1, 256 * 1024)
#: Few distinct instants: same-instant ties and receives posted after the
#: payload landed (the unexpected queue) are both common.
INSTANTS = (0.0, 2e-6, 1e-5, 4e-4)

message = st.tuples(
    st.integers(0, RANKS - 1),          # src
    st.integers(1, RANKS - 1),          # dst offset from src
    st.integers(0, 1),                  # tag: equal envelopes match FIFO
    st.sampled_from(SIZES),
    st.sampled_from(INSTANTS),          # send post time
    st.sampled_from(INSTANTS),          # recv post time
    st.booleans(),                      # send in callback form
    st.booleans(),                      # recv in callback form
)


def run_posts(msgs, order, *, ppn, drops, all_requests):
    """Post every message's send and receive at its instant (same-instant
    posts in ``order``); return the completion log of the run."""
    faults = None
    if drops:
        faults = FaultPlan([MessageDrop(probability=0.4, max_drops=6)],
                           seed=11)
    world = World(block_placement(RANKS, ppn), faults=faults)
    tr = world.transport
    eng = world.engine
    log = []

    def note(what, i, value=None):
        log.append((what, i, value, eng.now))

    def post(slot):
        i, is_send = divmod(slot, 2)
        src, off, tag, nbytes, _ts, _tr, send_cb, recv_cb = msgs[i]
        dst = (src + off) % RANKS
        if is_send:
            if send_cb and not all_requests:
                tr.post_send_cb(3, src, dst, ("u", tag), nbytes, f"m{i}", 0,
                                note, "send", i)
            else:
                req = tr.post_send(3, src, dst, ("u", tag), nbytes, f"m{i}")
                req.done.add_callback(lambda ev, i=i: note("send", i))
        elif recv_cb and not all_requests:
            tr.post_recv_cb(3, dst, src, ("u", tag), note, "recv", i)
        else:
            req = tr.post_recv(3, dst, src, ("u", tag))
            req.done.add_callback(
                lambda ev, i=i, req=req: note("recv", i, req.result))

    for slot in order:
        i, is_send = divmod(slot, 2)
        eng.schedule_at(msgs[i][4] if is_send else msgs[i][5], post, slot)
    eng.run()
    return log, tr.pending_counts()


@settings(max_examples=60, deadline=None)
@given(msgs=st.lists(message, min_size=1, max_size=10), data=st.data(),
       ppn=st.sampled_from((1, 2)), drops=st.booleans())
def test_callback_and_request_forms_are_interchangeable(msgs, data, ppn,
                                                        drops):
    order = data.draw(st.permutations(range(2 * len(msgs))))
    mixed, pending = run_posts(msgs, order, ppn=ppn, drops=drops,
                               all_requests=False)
    reference, _ = run_posts(msgs, order, ppn=ppn, drops=drops,
                             all_requests=True)
    assert mixed == reference
    # Every message matched and completed on both sides.
    assert pending == (0, 0)
    assert sorted(e[:2] for e in mixed) == sorted(
        (kind, i) for i in range(len(msgs)) for kind in ("recv", "send"))


def test_blocking_allreduce_allocates_one_request_per_rank(monkeypatch):
    counts = {"requests": 0, "events": 0}
    real_request, real_event = Request.__init__, SimEvent.__init__

    def count_request(self, *args, **kwargs):
        counts["requests"] += 1
        real_request(self, *args, **kwargs)

    def count_event(self, *args, **kwargs):
        counts["events"] += 1
        real_event(self, *args, **kwargs)

    monkeypatch.setattr(Request, "__init__", count_request)
    monkeypatch.setattr(SimEvent, "__init__", count_event)
    calls, ranks = 3, 16
    seen = {}
    for nbytes in (64, 1 << 20):  # short tree vs long halving/doubling
        counts.update(requests=0, events=0)
        world = World(block_placement(ranks, 1))

        def program(env, nbytes=nbytes):
            view = env.view(world.comm_world)
            for _ in range(calls):
                yield from view.allreduce(nbytes=nbytes)

        world.spawn_all(program)
        world.run()
        messages = world.fabric.inter_node_messages
        assert messages >= calls * (ranks - 1)
        assert counts["requests"] == ranks * calls
        seen[nbytes] = (messages, counts["events"])
    # Ten times the internal messages, not one more event.
    (m_short, ev_short), (m_long, ev_long) = seen[64], seen[1 << 20]
    assert m_long > 5 * m_short
    assert ev_short == ev_long
