"""Communicators and the rank-facing communication API.

A :class:`Comm` is a group of global ranks with a unique context id (cid);
message matching never crosses cids, so duplicated communicators
(:meth:`Comm.dup`) provide the isolated channels the paper's "nonblocking
overlap" technique needs ("data ... communicated using separate MPI
communicators, with each communicator performing communication
simultaneously with other communicators", §III-A).

A :class:`CommView` binds a communicator to one calling rank; all its
communication methods are generator coroutines used with ``yield from``
inside rank programs.  Buffer conventions:

* real-data mode — pass 1-D numpy arrays; collectives operate in place /
  return arrays, point-to-point delivers the payload object;
* modeled mode — pass ``nbytes=...`` instead of a buffer; only sizes and
  timing are simulated (used for the paper-scale benchmark sweeps).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mpi.collectives.executor import ScheduleRunner
from repro.mpi.collectives.plan import (
    get_plan,
    select_allreduce,
    select_bcast,
    select_reduce,
)
from repro.mpi.requests import Request
from repro.sim.process import Delay
from repro.sim.trace import SpanKind


class Comm:
    """A process group + communication context (compare ``MPI_Comm``)."""

    def __init__(self, world, ranks, name: str = "comm", channel: int = 0):
        ranks = tuple(int(r) for r in ranks)
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate ranks in communicator group")
        if not ranks:
            raise ValueError("empty communicator group")
        for r in ranks:
            if not 0 <= r < world.num_ranks:
                raise ValueError(f"rank {r} outside world of {world.num_ranks}")
        if channel and not 0 <= channel < world.params.num_channels:
            raise ValueError(
                f"channel {channel} outside [0, {world.params.num_channels}) "
                f"— raise NetworkParams.num_channels to use it"
            )
        self.world = world
        self.ranks = ranks
        self.name = name
        # Virtual lane: every wire transfer this communicator's operations
        # post (p2p and collective rounds alike) rides this fabric channel.
        self.channel = channel
        self.cid = world._next_cid()
        self._local_of = {g: i for i, g in enumerate(ranks)}
        # Per-local-rank collective sequence numbers.  MPI requires all ranks
        # to issue collectives on a communicator in the same order, so these
        # independent counters agree and give each collective a private tag.
        self._coll_seq = [0] * len(ranks)
        self._views: dict[int, "CommView"] = {}
        verifier = getattr(world, "verifier", None)
        if verifier is not None:
            verifier.on_comm_created(self)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def local(self, global_rank: int) -> int:
        """Local rank of ``global_rank``; raises ``KeyError`` if not a member."""
        return self._local_of[global_rank]

    def contains(self, global_rank: int) -> bool:
        return global_rank in self._local_of

    def dup(self, name: str | None = None,
            channel: int | None = None) -> "Comm":
        """A congruent communicator with a fresh context (``MPI_Comm_dup``).

        ``channel`` pins the duplicate to a fabric lane; ``None`` inherits
        this communicator's lane.
        """
        return Comm(self.world, self.ranks, name or f"{self.name}.dup",
                    channel=self.channel if channel is None else channel)

    def dup_many(self, n_dup: int, channels=None) -> list["Comm"]:
        """``n_dup`` duplicates — the N_DUP communicator copies of Alg. 2/5.

        ``channels`` optionally assigns one fabric lane per duplicate (the
        pipelined-multicast kernels' disjoint color channels).
        """
        if n_dup < 1:
            raise ValueError(f"n_dup must be >= 1, got {n_dup}")
        if channels is not None and len(channels) != n_dup:
            raise ValueError(
                f"channels has {len(channels)} entries for {n_dup} dups"
            )
        return [
            self.dup(f"{self.name}.dup{i}",
                     channel=None if channels is None else channels[i])
            for i in range(n_dup)
        ]

    def sub(self, ranks, name: str = "sub") -> "Comm":
        """Communicator over a subset of this group (global rank list)."""
        for r in ranks:
            if r not in self._local_of:
                raise ValueError(f"rank {r} not in {self.name}")
        return Comm(self.world, ranks, name)

    def split(self, colors: dict[int, Any]) -> dict[Any, "Comm"]:
        """``MPI_Comm_split``: map global rank -> color; returns color -> comm.

        Ranks with color ``None`` are excluded (MPI_UNDEFINED).  Key order
        within a color follows the parent communicator's rank order.
        """
        groups: dict[Any, list[int]] = {}
        for g in self.ranks:
            color = colors.get(g)
            if color is None:
                continue
            groups.setdefault(color, []).append(g)
        return {
            c: Comm(self.world, rs, f"{self.name}.split[{c}]")
            for c, rs in groups.items()
        }

    def view(self, global_rank: int) -> "CommView":
        """The calling-rank-bound API object for ``global_rank``.

        Views are stateless and cached per rank: the dense kernels re-ask
        for the same view every step/iteration.
        """
        local = self.local(global_rank)
        cv = self._views.get(local)
        if cv is None:
            cv = self._views[local] = CommView(self, local)
        return cv

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Comm {self.name!r} cid={self.cid} size={self.size}>"


_UNSET = object()
_A2A_TAG = 1_000_003  # reserved user-tag for alltoall exchanges


def _coll_tag(seq: int):
    return ("c", seq)


def _user_tag(tag: int):
    if tag < 0:
        raise ValueError(f"user tags must be >= 0, got {tag}")
    return ("u", tag)


class CommView:
    """One rank's handle on a communicator: all MPI verbs live here."""

    def __init__(self, comm: Comm, local_rank: int):
        self.comm = comm
        self.rank = local_rank
        self.world = comm.world
        self.gr = comm.ranks[local_rank]  # global rank

    @property
    def size(self) -> int:
        return self.comm.size

    # -- helpers ---------------------------------------------------------------

    def _resolve_buf(self, buf, nbytes):
        """Returns (buf_or_None, n_elems, itemsize, nbytes)."""
        if buf is not None:
            arr = np.asarray(buf)
            if arr.ndim != 1:
                raise ValueError("communication buffers must be 1-D arrays")
            return arr, arr.size, arr.itemsize, arr.nbytes
        if nbytes is None:
            raise ValueError("pass a buffer or nbytes=")
        if nbytes < 0:
            raise ValueError(f"negative nbytes {nbytes}")
        return None, int(nbytes), 1, int(nbytes)

    def _trace_post(self, t0: float, label: str) -> None:
        trace = self.world.trace
        if not trace.enabled:
            return
        t1 = self.world.engine.now
        if t1 > t0:
            trace.add(self.gr, t0, t1, SpanKind.POST, label)

    def _next_tag(self):
        seq = self.comm._coll_seq[self.rank]
        self.comm._coll_seq[self.rank] = seq + 1
        return _coll_tag(seq)

    # -- point-to-point -----------------------------------------------------------

    def isend(self, dest: int, *, data: Any = None, nbytes: int | None = None, tag: int = 0):
        """Generator: post a nonblocking send to local rank ``dest``.

        Charges the posting overhead (plus the eager-copy cost for small
        messages) on the calling CPU, then hands off to the transport.
        Returns a :class:`Request`.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        if data is not None and nbytes is None:
            arr = np.asarray(data)
            nbytes = arr.nbytes
        if nbytes is None:
            raise ValueError("pass data or nbytes=")
        p = self.world.params
        cost = p.send_overhead
        if nbytes <= p.rendezvous_threshold:
            cost += nbytes / p.eager_copy_bandwidth
        t0 = self.world.engine.now
        if cost > 0:
            yield Delay(cost)
        if self.world.trace.enabled:  # skip the label f-string in swept runs
            self._trace_post(t0, f"isend->l{dest}")
        utag = _user_tag(tag)
        req = self.world.transport.post_send(
            self.comm.cid, self.gr, self.comm.ranks[dest], utag, nbytes, data,
            self.comm.channel,
        )
        verifier = self.world.verifier
        if verifier is not None:
            verifier.on_p2p_posted(
                req, "isend", self.gr, peer=self.comm.ranks[dest],
                cid=self.comm.cid, tag=utag, nbytes=nbytes,
                buf=None if data is None else np.asarray(data),
            )
        return req

    def irecv(self, source: int, *, tag: int = 0):
        """Generator: post a nonblocking receive; returns a :class:`Request`."""
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range")
        p = self.world.params
        if p.recv_overhead > 0:
            yield Delay(p.recv_overhead)
        utag = _user_tag(tag)
        req = self.world.transport.post_recv(
            self.comm.cid, self.gr, self.comm.ranks[source], utag
        )
        verifier = self.world.verifier
        if verifier is not None:
            verifier.on_p2p_posted(
                req, "irecv", self.gr, peer=self.comm.ranks[source],
                cid=self.comm.cid, tag=utag, nbytes=0,
            )
        return req

    def send(self, dest: int, *, data: Any = None, nbytes: int | None = None, tag: int = 0):
        """Generator: blocking send (isend + wait)."""
        req = yield from self.isend(dest, data=data, nbytes=nbytes, tag=tag)
        yield from req.wait()

    def recv(self, source: int, *, tag: int = 0):
        """Generator: blocking receive; returns the payload."""
        req = yield from self.irecv(source, tag=tag)
        result = yield from req.wait()
        return result

    def sendrecv(
        self,
        dest: int,
        source: int,
        *,
        data: Any = None,
        nbytes: int | None = None,
        tag: int = 0,
    ):
        """Generator: concurrent send+recv (MPI_Sendrecv); returns received payload."""
        rreq = yield from self.irecv(source, tag=tag)
        sreq = yield from self.isend(dest, data=data, nbytes=nbytes, tag=tag)
        yield from sreq.wait()
        result = yield from rreq.wait()
        return result

    # -- collective engines ---------------------------------------------------------

    def _start(self, schedule, buf, itemsize, blocking, label, result=_UNSET,
               *, root=None, op_nbytes: int = 0) -> Request:
        tag = self._next_tag()
        verifier = self.world.verifier
        site = None
        if verifier is not None:
            site = verifier.on_collective_posted(
                self.comm, self.rank, tag[1], label, root, op_nbytes, buf,
            )
        runner = ScheduleRunner(
            self.world, self.comm, self.rank, tag, schedule, buf, itemsize,
            blocking, label,
        )
        req = Request(self.world, self.gr, label, runner.start())
        req.set_result(buf if result is _UNSET else result)
        if verifier is not None:
            verifier.track_request(req, label, self.gr, site,
                                   cid=self.comm.cid, seq=tag[1], tag=tag,
                                   nbytes=op_nbytes)
            if not blocking and buf is not None and not req.done.fired:
                verifier.hold_buffer(self.gr, buf, label, site, req)
        return req

    # -- broadcast --------------------------------------------------------------------

    def _bcast_schedule(self, n_elems, itemsize, root):
        p = self.comm.size
        algorithm = select_bcast(p, n_elems, itemsize, self.world.params)
        return get_plan(algorithm, p, self.rank, root, n_elems, itemsize)

    def ibcast(self, buf=None, *, nbytes: int | None = None, root: int = 0):
        """Generator: nonblocking broadcast from ``root`` (MPI_Ibcast).

        Posting cost is the small constant the paper measures (Fig. 6,
        bottom).  Returns a :class:`Request`; ``wait()`` returns the buffer.
        """
        arr, n_elems, itemsize, _nb = self._resolve_buf(buf, nbytes)
        t0 = self.world.engine.now
        if self.world.params.ibcast_post_seconds > 0:
            yield Delay(self.world.params.ibcast_post_seconds)
        self._trace_post(t0, "ibcast")
        sched = self._bcast_schedule(n_elems, itemsize, root)
        return self._start(sched, arr, itemsize, blocking=False, label="ibcast",
                           root=root, op_nbytes=n_elems * itemsize)

    def bcast(self, buf=None, *, nbytes: int | None = None, root: int = 0):
        """Generator: blocking broadcast; returns the buffer."""
        arr, n_elems, itemsize, _nb = self._resolve_buf(buf, nbytes)
        if self.world.params.send_overhead > 0:
            yield Delay(self.world.params.send_overhead)
        sched = self._bcast_schedule(n_elems, itemsize, root)
        req = self._start(sched, arr, itemsize, blocking=True, label="bcast",
                          root=root, op_nbytes=n_elems * itemsize)
        result = yield from req.wait()
        return result

    # -- reduce ------------------------------------------------------------------------

    def _reduce_schedule(self, n_elems, itemsize, root):
        p = self.comm.size
        algorithm = select_reduce(p, n_elems, itemsize, self.world.params)
        return get_plan(algorithm, p, self.rank, root, n_elems, itemsize)

    def _reduce_working(self, sendbuf, nbytes, label="reduce"):
        arr, n_elems, itemsize, nb = self._resolve_buf(sendbuf, nbytes)
        if arr is not None:
            # The working copy never aliases user memory, so the RA103 hazard
            # check must run against the original send buffer.
            verifier = self.world.verifier
            if verifier is not None:
                verifier.check_buffer(self.gr, arr, label)
            arr = arr.copy()  # reductions must not clobber the user's data
        return arr, n_elems, itemsize, nb

    def ireduce(self, sendbuf=None, *, nbytes: int | None = None, root: int = 0):
        """Generator: nonblocking sum-reduction to ``root`` (MPI_Ireduce).

        Posting charges the size-proportional marshalling cost the paper
        measures (Fig. 6, top: 265-1139 us for 2-8 MB) on the calling CPU.
        ``wait()`` returns the reduced array at the root, ``None`` elsewhere.
        """
        arr, n_elems, itemsize, nb = self._reduce_working(sendbuf, nbytes,
                                                          "ireduce")
        p = self.world.params
        cost = p.ireduce_post_base + nb * p.ireduce_post_per_byte
        t0 = self.world.engine.now
        if cost > 0:
            yield Delay(cost)
        self._trace_post(t0, "ireduce")
        sched = self._reduce_schedule(n_elems, itemsize, root)
        result = arr if self.rank == root else None
        return self._start(sched, arr, itemsize, blocking=False, label="ireduce",
                           result=result, root=root, op_nbytes=nb)

    def reduce(self, sendbuf=None, *, nbytes: int | None = None, root: int = 0):
        """Generator: blocking sum-reduction; returns the array at root."""
        arr, n_elems, itemsize, nb = self._reduce_working(sendbuf, nbytes,
                                                          "reduce")
        if self.world.params.send_overhead > 0:
            yield Delay(self.world.params.send_overhead)
        sched = self._reduce_schedule(n_elems, itemsize, root)
        result = arr if self.rank == root else None
        req = self._start(sched, arr, itemsize, blocking=True, label="reduce",
                          result=result, root=root, op_nbytes=nb)
        result = yield from req.wait()
        return result

    # -- allreduce ----------------------------------------------------------------------

    def _allreduce_schedule(self, n_elems, itemsize):
        p = self.comm.size
        algorithm = select_allreduce(p, n_elems, itemsize, self.world.params)
        return get_plan(algorithm, p, self.rank, 0, n_elems, itemsize)

    def iallreduce(self, sendbuf=None, *, nbytes: int | None = None):
        """Generator: nonblocking allreduce (sum); ``wait()`` returns the array."""
        arr, n_elems, itemsize, nb = self._reduce_working(sendbuf, nbytes,
                                                          "iallreduce")
        p = self.world.params
        cost = p.ireduce_post_base + nb * p.ireduce_post_per_byte
        t0 = self.world.engine.now
        if cost > 0:
            yield Delay(cost)
        self._trace_post(t0, "iallreduce")
        sched = self._allreduce_schedule(n_elems, itemsize)
        return self._start(sched, arr, itemsize, blocking=False,
                           label="iallreduce", op_nbytes=nb)

    def allreduce(self, sendbuf=None, *, nbytes: int | None = None):
        """Generator: blocking allreduce (sum); returns the reduced array."""
        arr, n_elems, itemsize, nb = self._reduce_working(sendbuf, nbytes,
                                                          "allreduce")
        if self.world.params.send_overhead > 0:
            yield Delay(self.world.params.send_overhead)
        sched = self._allreduce_schedule(n_elems, itemsize)
        req = self._start(sched, arr, itemsize, blocking=True,
                          label="allreduce", op_nbytes=nb)
        result = yield from req.wait()
        return result

    # -- allgather -------------------------------------------------------------------------

    def allgather(self, buf=None, *, nbytes: int | None = None):
        """Generator: ring allgather over the buffer's ``p`` segments.

        Each rank passes the *full-size* buffer with its own segment
        (``segment r`` of ``p`` equal splits) filled; returns the completed
        buffer (MPI_Allgather with in-place convention).
        """
        arr, n_elems, itemsize, nb = self._resolve_buf(buf, nbytes)
        if self.world.params.send_overhead > 0:
            yield Delay(self.world.params.send_overhead)
        sched = get_plan("allgather_ring", self.comm.size, self.rank, 0,
                         n_elems, itemsize)
        req = self._start(sched, arr, itemsize, blocking=True,
                          label="allgather", op_nbytes=nb)
        result = yield from req.wait()
        return result

    def iallgather(self, buf=None, *, nbytes: int | None = None):
        """Generator: nonblocking ring allgather (cf. :meth:`allgather`)."""
        arr, n_elems, itemsize, nb = self._resolve_buf(buf, nbytes)
        t0 = self.world.engine.now
        if self.world.params.ibcast_post_seconds > 0:
            yield Delay(self.world.params.ibcast_post_seconds)
        self._trace_post(t0, "iallgather")
        sched = get_plan("allgather_ring", self.comm.size, self.rank, 0,
                         n_elems, itemsize)
        return self._start(sched, arr, itemsize, blocking=False,
                           label="iallgather", op_nbytes=nb)

    # -- reduce-scatter ---------------------------------------------------------------

    def _reduce_scatter_result(self, arr, n_elems):
        p = self.comm.size
        lo = (self.rank * n_elems) // p
        hi = ((self.rank + 1) * n_elems) // p
        return None if arr is None else arr[lo:hi].copy()

    def ireduce_scatter(self, sendbuf=None, *, nbytes: int | None = None):
        """Generator: nonblocking ring reduce-scatter (sum).

        Every rank contributes a full-size buffer; ``wait()`` returns rank
        ``r``'s fully-reduced segment ``r`` of ``p`` near-equal splits.
        """
        arr, n_elems, itemsize, nb = self._reduce_working(sendbuf, nbytes,
                                                          "ireduce_scatter")
        p = self.world.params
        cost = p.ireduce_post_base + nb * p.ireduce_post_per_byte
        t0 = self.world.engine.now
        if cost > 0:
            yield Delay(cost)
        self._trace_post(t0, "ireduce_scatter")
        sched = get_plan("reduce_scatter_ring", self.comm.size, self.rank, 0,
                         n_elems, itemsize)
        req = self._start(sched, arr, itemsize, blocking=False,
                          label="ireduce_scatter", result=None, op_nbytes=nb)
        # The working buffer is only consistent in this rank's own segment
        # once the schedule completes; patch the result lazily.
        req.done.add_callback(
            lambda _ev: req.set_result(self._reduce_scatter_result(arr, n_elems))
        )
        return req

    def reduce_scatter(self, sendbuf=None, *, nbytes: int | None = None):
        """Generator: blocking ring reduce-scatter; returns my reduced segment."""
        req = yield from self.ireduce_scatter(sendbuf, nbytes=nbytes)
        result = yield from req.wait()
        return result

    # -- alltoall ----------------------------------------------------------------------

    def alltoall(self, buf=None, *, nbytes: int | None = None):
        """Generator: personalized all-to-all over the buffer's ``p`` segments.

        Rank ``r`` sends segment ``s`` of its buffer to rank ``s`` and
        receives rank ``s``'s segment ``r`` into segment ``s`` (MPI_Alltoall
        with the in-place layout).  Implemented with pairwise-ordered
        point-to-point exchanges (peer ``(r + t) % p`` at step ``t``), the
        standard long-message algorithm.  Returns the buffer.
        """
        arr, n_elems, itemsize, _nb = self._resolve_buf(buf, nbytes)
        p = self.comm.size
        me = self.rank
        if n_elems % p != 0:
            raise ValueError(
                f"alltoall needs equal segments: {n_elems} elements, p={p}"
            )
        segs = [((s * n_elems) // p, ((s + 1) * n_elems) // p) for s in range(p)]
        # Snapshot outgoing segments before any receive overwrites them.
        outgoing = None
        if arr is not None:
            outgoing = [np.array(arr[lo:hi]) for lo, hi in segs]
        reqs = []
        for t in range(1, p):
            dst = (me + t) % p
            src = (me - t) % p
            rreq = yield from self.irecv(src, tag=_A2A_TAG)
            lo, hi = segs[dst]
            sreq = yield from self.isend(
                dst,
                data=None if outgoing is None else outgoing[dst],
                nbytes=(hi - lo) * itemsize,
                tag=_A2A_TAG,
            )
            reqs.append((src, rreq, sreq))
        for src, rreq, sreq in reqs:
            got = yield from rreq.wait()
            if arr is not None and got is not None:
                lo, hi = segs[src]
                arr[lo:hi] = got
            yield from sreq.wait()
        return arr

    # -- barrier ----------------------------------------------------------------------------

    def ibarrier(self):
        """Generator: nonblocking dissemination barrier; returns a Request.

        This is the kernel-gating primitive of §III-B (inactive processes
        poll the barrier with MPI_Test while sleeping).
        """
        if self.world.params.send_overhead > 0:
            yield Delay(self.world.params.send_overhead)
        sched = get_plan("barrier", self.comm.size, self.rank, 0, 0, 1)
        return self._start(sched, None, 1, blocking=False, label="ibarrier",
                           op_nbytes=0)

    def barrier(self):
        """Generator: blocking dissemination barrier."""
        req = yield from self.ibarrier()
        yield from req.wait()

    # -- linear scatter/gather (root-orchestrated; API completeness) -----------------------------

    def scatter(self, sendbuf=None, *, nbytes: int | None = None, root: int = 0):
        """Generator: root sends segment ``i`` to rank ``i``; returns my segment.

        Linear (root posts ``p-1`` sends) — sufficient for the setup phases
        where it is used; the kernels' hot paths use bcast/reduce.
        """
        p = self.comm.size
        if self.rank == root:
            arr, n_elems, itemsize, nb = self._resolve_buf(sendbuf, nbytes)
            reqs = []
            for dst in range(p):
                lo = (dst * n_elems) // p
                hi = ((dst + 1) * n_elems) // p
                if dst == root:
                    mine = arr[lo:hi].copy() if arr is not None else None
                    continue
                data = arr[lo:hi].copy() if arr is not None else None
                req = yield from self.isend(
                    dst, data=data, nbytes=(hi - lo) * itemsize, tag=0
                )
                reqs.append(req)
            for req in reqs:
                yield from req.wait()
            return mine
        data = yield from self.recv(root, tag=0)
        return data

    def gather(self, data=None, *, nbytes: int | None = None, root: int = 0):
        """Generator: inverse of :meth:`scatter`; root returns list of payloads."""
        p = self.comm.size
        if self.rank == root:
            out: list[Any] = [None] * p
            out[root] = data
            reqs = []
            for src in range(p):
                if src == root:
                    continue
                req = yield from self.irecv(src, tag=1)
                reqs.append((src, req))
            for src, req in reqs:
                out[src] = yield from req.wait()
            return out
        yield from self.send(root, data=data, nbytes=nbytes, tag=1)
        return None
