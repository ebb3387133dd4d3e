"""Fluid-flow network fabric integrated with the discrete-event engine.

Each message becomes a :class:`Flow`: after a latency phase, its bytes drain
at a rate recomputed every time a flow starts or finishes on a shared
resource.  Resources are per-node, per-direction NIC capacities (``tx`` /
``rx``) and a per-node shared-memory capacity (``shm``) for intra-node
traffic.

Rate rule (equal share, non-work-conserving)::

    rate(f) = min( flow_cap(f.nbytes),
                   B_nic / n_tx_flows(src_node),
                   B_nic / n_rx_flows(dst_node) )

Equal sharing models NIC arbitration among concurrent messages; *not*
redistributing a capped flow's unused share is deliberate — it reproduces the
paper's observation that a single operation cannot soak up bandwidth freed by
another operation that is stuck in a synchronization stage, which is exactly
why overlapping communications helps.

Batched rate resharing
----------------------
Rates depend only on which flows are active, so all the membership changes
that happen at one virtual instant (a collective posting ``P`` flows at
once, ``P`` ring-round flows finishing together) are coalesced into a
*single* recompute, run as an end-of-instant engine hook
(:meth:`~repro.sim.engine.Engine.at_instant_end`) after the instant's
activations/completions have settled.  Per recompute, every affected flow's
rate is derived once from the final membership — instead of once per
membership change — and the per-resource equal share is memoized.  This
turns the naive O(F) work *per flow event* (O(F²) per burst) into
O(affected) per burst, without changing any completion time: intermediate
rates during an instant are unobservable, because a rate only matters for
the *duration* it is in effect, and that duration is zero within an
instant.

Cross-instant share caching
---------------------------
The equal share of a resource (``total / n_flows``) only changes when the
resource's membership changes (or a fault window edge rescales ``total``).
Shares are therefore cached *across* recomputes in :attr:`Fabric._share_cache`
and invalidated per dirty key: a recompute only re-divides the resources
whose flow sets actually changed this instant, while the min-rate scan over
an affected flow's other resources hits the cache at C dict-lookup speed
(the cache is a ``__missing__`` dict, so misses compute-and-store without an
interpreted probe/branch).  Fault boundary refreshes clear the whole cache,
because ``bandwidth_factor`` is piecewise-constant between boundaries.  The
cached value is produced by the exact same expression as before
(``total / len(flows)``), so every rate — and hence every completion
timestamp — is bit-for-bit identical.

Lazy completion timers
----------------------
Each active flow tracks its exact completion time ``eta`` (recomputed on
every rate change from the same floats the naive design used, so completion
timestamps are bit-for-bit identical).  The heap entry for the completion
is only *moved* when the new ``eta`` is earlier than the scheduled one;
when a rate drop pushes ``eta`` later, the existing entry is kept and, on
firing early, hops to the current ``eta`` — one cheap re-push absorbing any
number of intervening rate drops.  Entries that must move earlier are
:meth:`~repro.sim.engine.Engine.cancel`-ed rather than left in the heap as
version-guarded no-ops, so the heap stays O(active flows) on long runs
(see ``docs/perf.md``).
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from repro.netmodel.params import MAX_CHANNELS, NetworkParams
from repro.netmodel.topology import Cluster
from repro.sim.engine import _COMPACT_MIN, Engine, SimEvent
from repro.sim.faults import FaultPlan
from repro.sim.trace import SpanKind, Trace

_EPS_BYTES = 1e-6
_INF = float("inf")


class FlowRecord(NamedTuple):
    """One completed flow, as exported to :mod:`repro.analytics`.

    ``t_start`` is the instant the payload hit the wire (post latency
    already paid) and ``t_end`` the delivery of the last byte, so
    ``[t_start, t_end)`` is exactly the interval the flow occupied its link
    resources.  ``op`` is an opaque operation key — ``(cid, tag)`` for MPI
    traffic, so each collective instance (one tag per instance) and each
    p2p envelope stream gets a distinct key; ``None`` for raw
    :meth:`Fabric.transfer` calls.
    """

    fid: int
    src_rank: int
    dst_rank: int
    src_node: int
    dst_node: int
    nbytes: float
    channel: int
    t_start: float
    t_end: float
    op: object | None

# Resource keys are packed ints — ``(((ident << 2) | kind) << 3) | channel``
# — so the hot dict operations (share cache hits, dirty marks, membership
# updates) hash a small int instead of a (str, int, int) tuple.  ``ident`` is
# a node index for tx/rx/shm and a rank for px; ``channel`` is the virtual
# lane (3 bits, see :data:`repro.netmodel.params.MAX_CHANNELS`).  With
# ``num_channels=1`` every key has channel bits 0, so the packed values are
# simply 8x the pre-channel keys — same hashing, same uniqueness, same
# deterministic orderings.
_K_TX, _K_RX, _K_PX, _K_SHM = 0, 1, 2, 3
_CH_BITS = 3
assert MAX_CHANNELS <= 1 << _CH_BITS

class Flow:
    """One in-flight message's fluid state."""

    __slots__ = (
        "fid",
        "src_rank",
        "dst_rank",
        "src_node",
        "dst_node",
        "nbytes",
        "remaining",
        "rate",
        "last_t",
        "eta",
        "done_cb",
        "done_args",
        "resources",
        "cap",
        "start_time",
        "active",
        "timer",
        "rec_node",
        "channel",
        "op",
    )

    def __init__(self, fid, src_rank, dst_rank, src_node, dst_node, nbytes, cap,
                 done_cb, done_args):
        self.fid = fid
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.src_node = src_node
        self.dst_node = dst_node
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.last_t = 0.0
        self.eta = _INF  # exact completion time under the current rate
        self.done_cb = done_cb
        self.done_args = done_args
        self.resources: tuple = ()
        self.cap = cap
        self.start_time = 0.0
        self.active = False
        self.timer: list | None = None  # pending completion heap entry
        self.rec_node = None  # recording: this flow's K_FLOW graph node
        self.channel = 0  # virtual lane the flow's shares come from
        self.op = None    # opaque operation key ((cid, tag)) for analytics

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow {self.fid} r{self.src_rank}->r{self.dst_rank} "
            f"{self.remaining:.0f}/{self.nbytes:.0f}B @{self.rate:.3g}B/s>"
        )


class _ShareCache(dict):
    """Per-resource equal-share cache, valid across recomputes.

    ``cache[key]`` returns the resource's current equal share; a miss
    computes ``total / len(flows)`` from the live membership and stores it.
    The fabric invalidates exactly the dirty keys each instant (membership
    changed) and clears the cache at fault window edges (``total`` changed).
    """

    __slots__ = ("fabric",)

    def __init__(self, fabric: "Fabric"):
        super().__init__()
        self.fabric = fabric

    def __missing__(self, key):
        fab = self.fabric
        fset = fab._flows_at.get(key)
        if not fset:
            share = _INF
        else:
            kind = (key >> _CH_BITS) & 3
            params = fab.params
            if kind == _K_SHM:
                total = params.shm_bandwidth
            elif kind == _K_PX:
                total = params.process_injection_bandwidth
            else:
                total = params.nic_bandwidth
                faults = fab.faults
                if faults is not None:
                    total *= faults.bandwidth_factor(
                        "tx" if kind == _K_TX else "rx",
                        key >> (_CH_BITS + 2), fab.engine.now,
                    )
            # Virtual lane: this channel owns its capacity fraction.  The
            # single-channel fraction is exactly 1.0, so the scaling is
            # skipped and the division below is the unsplit model's.
            frac = fab._ch_frac[key & 7]
            if frac != 1.0:
                total *= frac
            share = total / len(fset)
        self[key] = share
        return share


class Fabric:
    """Shared-network simulator for one cluster.

    Use :meth:`transfer` to move bytes between ranks; the returned event
    fires when the last byte arrives.  The fabric also accumulates the
    inter-node / intra-node byte counters used by the Table IV experiment.
    """

    # Class-level per-channel traffic aggregates, mirroring
    # Engine._agg_* : worker processes of a ``--jobs N`` grid sweep report
    # these via ``aggregate_stats()`` so the harness can merge per-channel
    # byte/flow counters byte-identically to a serial run.  Updated only by
    # :meth:`_flush_aggregate` (under ``Engine._agg_lock``, once per engine
    # run) rather than per transfer — fabrics run concurrently under the
    # tuning service and unlocked per-transfer ``+=`` would lose updates.
    # Byte counts are integral floats, so the delta sums are exact no
    # matter how flushes interleave.
    _agg_channel_bytes: list = [0.0] * MAX_CHANNELS
    _agg_channel_messages: list = [0] * MAX_CHANNELS

    @classmethod
    def reset_aggregate_stats(cls) -> None:
        cls._agg_channel_bytes = [0.0] * MAX_CHANNELS
        cls._agg_channel_messages = [0] * MAX_CHANNELS

    @classmethod
    def aggregate_stats(cls) -> dict:
        return {
            "channel_bytes": list(cls._agg_channel_bytes),
            "channel_messages": list(cls._agg_channel_messages),
        }

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        params: NetworkParams | None = None,
        trace: Trace | None = None,
        faults: FaultPlan | None = None,
    ):
        self.engine = engine
        self.cluster = cluster
        self.params = params or NetworkParams()
        # Per-rank precomputation for the transfer_cb hot path: node lookup
        # without a method call, packed-int resource keys ready to use.
        placement = tuple(
            cluster.node_of(r) for r in range(cluster.num_ranks)
        )
        self._placement = placement
        nranks_on: dict[int, int] = {}
        for n in placement:
            nranks_on[n] = nranks_on.get(n, 0) + 1
        p = self.params
        # On a single-rank node the px flow set equals the tx flow set, so
        # whichever of the two capacities is smaller always yields the
        # smaller share — the other resource can never bind and is dropped
        # from the flow's resource tuple (pure wall-clock: the min-rate is
        # unchanged).  Faults rescale tx/rx, so with a fault plan attached
        # both are kept.
        drop_tx = faults is None and p.process_injection_bandwidth < p.nic_bandwidth
        drop_px = faults is None and p.process_injection_bandwidth >= p.nic_bandwidth
        # The channel split applies the same fraction to every resource kind,
        # so the single-rank-node tx/px dominance argument holds lane by lane
        # and the key tables are simply replicated per channel.
        nch = p.num_channels
        self._nch = nch
        self._ch_frac = p.channel_fractions()
        rx_keys, shm_ress, src_pfxs = [], [], []
        for ch in range(nch):
            rx_keys.append(tuple(
                (((n << 2) | _K_RX) << _CH_BITS) | ch for n in placement
            ))
            shm_ress.append(tuple(
                ((((n << 2) | _K_SHM) << _CH_BITS) | ch,) for n in placement
            ))
            src_pfx = []
            for r, n in enumerate(placement):
                tx = (((n << 2) | _K_TX) << _CH_BITS) | ch
                px = (((r << 2) | _K_PX) << _CH_BITS) | ch
                if nranks_on[n] == 1 and drop_tx:
                    src_pfx.append((px,))
                elif nranks_on[n] == 1 and drop_px:
                    src_pfx.append((tx,))
                else:
                    src_pfx.append((tx, px))
            src_pfxs.append(tuple(src_pfx))
        self._rx_keys = tuple(rx_keys)
        self._shm_ress = tuple(shm_ress)
        self._src_pfxs = tuple(src_pfxs)
        # Channel-0 aliases keep the hot path one indexing step shorter for
        # the (overwhelmingly common) default-channel transfer.
        self._rx_key = self._rx_keys[0]
        self._shm_res = self._shm_ress[0]
        self._src_pfx = self._src_pfxs[0]
        self.trace = trace
        self.faults = faults
        if faults is not None:
            # Re-share capacities at every degradation window edge so flows
            # already in flight feel the throttle (and its lifting) mid-run.
            for when in faults.link_boundaries():
                engine.schedule_at(when, self._refresh_rates)
        # Per-resource membership as fid->Flow dicts: C-speed unions via
        # dict.update and deterministic ordering via sorted(int fids).
        self._flows_at: dict[tuple[str, int], dict[int, Flow]] = {}
        self._share_cache = _ShareCache(self)
        self._next_fid = 0
        # Membership changes awaiting the coalesced recompute (a dict, not a
        # set, so iteration order is insertion order — independent of the
        # interpreter's hash seed).
        self._dirty: dict[int, None] = {}
        self._armed = False  # end-of-instant recompute hook registered
        # Same-instant activation batches: arrival time -> flows, drained by
        # one _activate_batch event per distinct arrival instant.
        self._act_pending: dict[float, list[Flow]] = {}
        # Statistics (Table IV and the EXPERIMENTS report).
        self.inter_node_bytes = 0.0
        self.intra_node_bytes = 0.0
        self.inter_node_messages = 0
        self.intra_node_messages = 0
        # Per-channel traffic counters (instance + process-wide aggregate).
        self.channel_bytes = [0.0] * nch
        self.channel_messages = [0] * nch
        # High-water marks already reported to the class aggregates; the
        # delta is flushed at the end of every engine run (see
        # Engine.aggregate_flushers) so the per-transfer hot path never
        # touches shared class state.
        self._flushed_channel_bytes = [0.0] * nch
        self._flushed_channel_messages = [0] * nch
        engine.aggregate_flushers.append(self._flush_aggregate)
        # Busy-time integral of the union of active inter-node flows.
        self._active_inter = 0
        self._busy_since = 0.0
        self.inter_busy_time = 0.0
        # Flow-record export for repro.analytics: one FlowRecord per
        # completed flow when a live trace is attached (observability runs
        # only — untraced sweeps pay nothing).  See :meth:`flow_records`.
        self.flow_log: list[FlowRecord] | None = (
            [] if trace is not None and trace.enabled else None
        )

    def _flush_aggregate(self) -> None:
        """Report this fabric's traffic deltas to the class-wide aggregates.

        Called by the engine at the end of every :meth:`Engine.run` (this
        fabric registered itself in ``engine.aggregate_flushers``).  The
        instance counters are the source of truth; only the delta since the
        last flush is added, under ``Engine._agg_lock``, so concurrent
        worlds (one per tuning-service search thread) never lose updates.
        """
        cb, cm = self.channel_bytes, self.channel_messages
        fb, fm = self._flushed_channel_bytes, self._flushed_channel_messages
        with Engine._agg_lock:
            ab = Fabric._agg_channel_bytes
            am = Fabric._agg_channel_messages
            for ch in range(self._nch):
                ab[ch] += cb[ch] - fb[ch]
                am[ch] += cm[ch] - fm[ch]
        self._flushed_channel_bytes = list(cb)
        self._flushed_channel_messages = list(cm)

    # -- public API -----------------------------------------------------------

    def transfer(
        self, src_rank: int, dst_rank: int, nbytes: float,
        extra_latency: float = 0.0, channel: int = 0,
    ) -> SimEvent:
        """Start moving ``nbytes`` from ``src_rank`` to ``dst_rank``.

        Returns an event that fires when delivery completes.  ``extra_latency``
        adds protocol costs (e.g. a rendezvous handshake) ahead of the wire
        latency.  A transfer between co-located ranks rides the node's
        shared-memory path.  ``channel`` selects the virtual lane the flow's
        bandwidth shares come from (see ``NetworkParams.num_channels``).
        """
        done = self.engine.event("flow")
        self.transfer_cb(src_rank, dst_rank, nbytes, extra_latency,
                         done.succeed, channel=channel)
        return done

    def transfer_cb(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: float,
        extra_latency: float,
        done_cb,
        *done_args,
        channel: int = 0,
        op: object | None = None,
    ) -> None:
        """Like :meth:`transfer`, but invokes ``done_cb(*done_args)`` on
        delivery instead of allocating a :class:`SimEvent` — the transport
        layer's per-message fast path.  ``op`` is an opaque operation key
        (the transport passes ``(cid, tag)``) carried through to the flow
        log for :mod:`repro.analytics`; it does not affect timing.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if extra_latency < 0:
            raise ValueError(f"negative extra latency: {extra_latency}")
        p = self.params
        placement = self._placement
        src_node = placement[src_rank]
        dst_node = placement[dst_rank]
        if self.faults is not None:
            extra_latency += self.faults.jitter_latency(
                src_node, dst_node, self.engine.now
            )
        self._next_fid += 1
        if channel:  # non-default lane: validate once, per-channel key tables
            if not 0 <= channel < self._nch:
                raise ValueError(
                    f"channel {channel} outside [0, {self._nch}) — the fabric "
                    f"has num_channels={self._nch}"
                )
            shm_res = self._shm_ress[channel]
            src_pfx = self._src_pfxs[channel]
            rx_key = self._rx_keys[channel]
        else:
            shm_res = self._shm_res
            src_pfx = self._src_pfx
            rx_key = self._rx_key
        if src_node == dst_node:
            latency = p.shm_alpha + extra_latency
            cap = p.shm_cap(nbytes)
            resources = shm_res[src_rank]
            self.intra_node_bytes += nbytes
            self.intra_node_messages += 1
        else:
            latency = p.alpha + extra_latency
            cap = p.flow_cap(nbytes)
            resources = src_pfx[src_rank] + (rx_key[dst_rank],)
            self.inter_node_bytes += nbytes
            self.inter_node_messages += 1
        self.channel_bytes[channel] += nbytes
        self.channel_messages[channel] += 1
        flow = Flow(
            self._next_fid, src_rank, dst_rank, src_node, dst_node, nbytes, cap,
            done_cb, done_args,
        )
        flow.resources = resources
        if channel:
            flow.channel = channel
        if op is not None:
            flow.op = op
        engine = self.engine
        rec = engine.recorder
        if rec is not None:
            if self.faults is not None:
                rec.invalidate("fault plan attached to the fabric")
            flow.rec_node = rec.flow(src_rank, dst_rank, nbytes,
                                     extra_latency, engine._rec_now(), channel)
            # The fabric's internal events (activation batches, completion
            # timers) are replayed by the fabric itself — suppress graph
            # nodes for the scheduling below.
            engine._rec_suspend = True
        if nbytes > 0:
            # Coalesce same-instant activations into one engine event: a
            # nonzero flow's activation is unobservable until the
            # end-of-instant recompute, so a wave of P postings with equal
            # arrival times needs one dispatch, not P.  Zero-byte flows
            # complete (and run user callbacks) at activation, so they keep
            # their own event to preserve intra-instant ordering.
            when = engine.now + latency
            batch = self._act_pending.get(when)
            if batch is None:
                self._act_pending[when] = batch = [flow]
                engine.schedule_at(when, self._activate_batch, when)
            else:
                batch.append(flow)
        else:
            engine.schedule_after(latency, self._activate, flow)
        if rec is not None:
            engine._rec_suspend = False

    def snapshot_stats(self) -> dict:
        """Current transfer counters (bytes are cumulative since creation).

        ``channel_bytes`` / ``channel_messages`` split the same traffic per
        virtual lane (length ``num_channels``; with one channel the single
        entry equals the inter+intra totals).
        """
        return {
            "inter_node_bytes": self.inter_node_bytes,
            "intra_node_bytes": self.intra_node_bytes,
            "inter_node_messages": self.inter_node_messages,
            "intra_node_messages": self.intra_node_messages,
            "inter_busy_time": self.inter_busy_time
            + (
                (self.engine.now - self._busy_since) if self._active_inter > 0 else 0.0
            ),
            "channel_bytes": list(self.channel_bytes),
            "channel_messages": list(self.channel_messages),
        }

    def flow_records(self) -> list["FlowRecord"]:
        """Completed flows in completion order (see :class:`FlowRecord`).

        Only collected while a live trace is attached (the fabric is then
        already in observability mode); untraced runs return ``[]`` so
        callers can probe unconditionally.
        """
        return list(self.flow_log) if self.flow_log is not None else []

    # -- internals --------------------------------------------------------------

    def _activate_batch(self, when: float) -> None:
        """Activate every nonzero flow that arrived at this exact instant."""
        flows = self._act_pending.pop(when)
        now = self.engine.now
        flows_at = self._flows_at
        dirty = self._dirty
        for flow in flows:
            flow.active = True
            flow.start_time = now
            flow.last_t = now
            if flow.src_node != flow.dst_node:
                if self._active_inter == 0:
                    self._busy_since = now
                self._active_inter += 1
            fid = flow.fid
            for key in flow.resources:
                s = flows_at.get(key)
                if s is None:
                    flows_at[key] = {fid: flow}
                else:
                    s[fid] = flow
                dirty[key] = None
        if not self._armed:
            self._armed = True
            self.engine.at_instant_end(self._recompute)

    def _activate(self, flow: Flow) -> None:
        flow.active = True
        flow.start_time = self.engine.now
        flow.last_t = self.engine.now
        if flow.src_node != flow.dst_node:
            if self._active_inter == 0:
                self._busy_since = self.engine.now
            self._active_inter += 1
        if flow.nbytes <= 0:
            self._complete(flow)
            return
        flows_at = self._flows_at
        fid = flow.fid
        dirty = self._dirty  # _touch inlined: membership + dirty in one pass
        for key in flow.resources:
            s = flows_at.get(key)
            if s is None:
                flows_at[key] = {fid: flow}
            else:
                s[fid] = flow
            dirty[key] = None
        if not self._armed:
            self._armed = True
            self.engine.at_instant_end(self._recompute)

    def _complete(self, flow: Flow) -> None:
        flow.active = False
        flow.remaining = 0.0
        if flow.timer is not None:
            self.engine.cancel(flow.timer)
            flow.timer = None
        flows_at = self._flows_at
        fid = flow.fid
        dirty = self._dirty  # _touch inlined, as in _activate
        for key in flow.resources:
            s = flows_at.get(key)
            if s is not None:
                s.pop(fid, None)
                if not s:
                    del flows_at[key]  # prune: keep _refresh_rates O(active)
            dirty[key] = None
        if not self._armed:
            self._armed = True
            self.engine.at_instant_end(self._recompute)
        if flow.src_node != flow.dst_node:
            self._active_inter -= 1
            if self._active_inter == 0:
                self.inter_busy_time += self.engine.now - self._busy_since
        if self.trace is not None and self.trace.enabled:
            # The link (src/dst node) and lane ids let repro.analytics
            # attribute this span to a per-(link, channel) timeline without
            # re-deriving them from packed resource keys.
            self.trace.add(
                flow.src_rank,
                flow.start_time,
                self.engine.now,
                SpanKind.TRANSFER,
                f"flow->r{flow.dst_rank}",
                nbytes=flow.nbytes,
                src_node=flow.src_node,
                dst_node=flow.dst_node,
                channel=flow.channel,
            )
        if self.flow_log is not None:
            self.flow_log.append(FlowRecord(
                fid, flow.src_rank, flow.dst_rank, flow.src_node,
                flow.dst_node, flow.nbytes, flow.channel, flow.start_time,
                self.engine.now, flow.op,
            ))
        if flow.rec_node is not None:
            # Everything caused by this delivery chains off the flow's
            # graph node, whose replayed value is the fabric's own answer.
            self.engine._rec_ctx = flow.rec_node
        flow.done_cb(*flow.done_args)

    def _touch(self, keys: tuple) -> None:
        """Mark resources dirty; coalesce into one end-of-instant recompute."""
        dirty = self._dirty
        for key in keys:
            dirty[key] = None
        if not self._armed:
            self._armed = True
            self.engine.at_instant_end(self._recompute)

    def _recompute(self) -> None:
        """The coalesced recompute: one `_update` over this instant's keys."""
        self._armed = False
        keys = tuple(self._dirty)
        self._dirty.clear()
        # Membership of exactly these keys changed this instant; drop their
        # cached shares so _update re-divides them (others stay valid).
        cache = self._share_cache
        for key in keys:
            cache.pop(key, None)
        self._update(keys)

    def _refresh_rates(self) -> None:
        """Recompute every active flow's rate (a degradation window edge)."""
        self._share_cache.clear()  # bandwidth factors just changed
        keys = tuple(self._flows_at)  # empty sets are pruned eagerly
        if keys:
            self._update(keys)

    def _update(self, keys: tuple) -> None:
        """Recompute rates of every flow touching ``keys``; move completions."""
        now = self.engine.now
        flows_at = self._flows_at
        if len(keys) == 1:
            s = flows_at.get(keys[0])
            merged = dict(s) if s else {}
        else:
            merged: dict[int, Flow] = {}
            update = merged.update
            for key in keys:
                s = flows_at.get(key)
                if s:
                    update(s)
        if len(merged) > 1:  # single-flow updates dominate; skip the sort
            flows = [merged[fid] for fid in sorted(merged)]
        else:
            flows = merged.values()
        shares = self._share_cache
        engine = self.engine
        maybe_done = self._maybe_done
        # Timer cancel/reschedule is inlined below (identical counter and
        # heap semantics to Engine.cancel/schedule_at) — this loop runs
        # without reentrancy, so no callback can observe the intermediate
        # engine state.
        heap = engine._heap
        heappush = heapq.heappush
        for f in flows:
            new_rate = f.cap
            for key in f.resources:
                share = shares[key]
                if share < new_rate:
                    new_rate = share
            rate = f.rate
            if new_rate == rate and rate > 0.0:
                continue  # unchanged binding: existing completion stays valid
            # Settle progress at the old rate.
            if rate > 0.0:
                f.remaining -= rate * (now - f.last_t)
                if f.remaining < 0.0:
                    f.remaining = 0.0
            f.last_t = now
            f.rate = new_rate
            if f.remaining <= _EPS_BYTES:
                eta = now
            elif new_rate > 0.0:
                eta = now + f.remaining / new_rate
            else:
                # Throttled to zero: completion unschedulable until a rate
                # returns.  A pending early timer hops harmlessly via the
                # eta-is-inf guard in _maybe_done.
                f.eta = _INF
                continue
            f.eta = eta
            t = f.timer
            if t is not None:
                if t[0] <= eta:
                    # Rate dropped (or held): the earlier entry stays and
                    # hops to the new eta when it fires — no heap traffic.
                    continue
                # Superseded by an *earlier* completion: inline cancel.  A
                # flow's timer reference is cleared before any callback runs,
                # so the entry here is always live.
                t[2] = None
                t[3] = ()
                engine.events_cancelled += 1
                nd = engine._ndead = engine._ndead + 1
                if nd * 2 > len(heap) >= _COMPACT_MIN:
                    engine._compact()
            engine._seq = seq = engine._seq + 1
            f.timer = entry = [eta, seq, maybe_done, (f,)]
            heappush(heap, entry)

    def _maybe_done(self, flow: Flow) -> None:
        flow.timer = None
        if not flow.active:
            return
        eta = flow.eta
        engine = self.engine
        now = engine.now
        if now < eta:
            # Fired at a superseded (earlier) eta: hop to the exact current
            # one.  eta is absolute, so no float drift accumulates.  The
            # re-push is inlined (schedule_at semantics; eta > now here).
            if eta < _INF:
                engine._seq = seq = engine._seq + 1
                flow.timer = entry = [eta, seq, self._maybe_done, (flow,)]
                heapq.heappush(engine._heap, entry)
            return
        # Settle and verify the bytes are indeed drained (guards float drift).
        flow.remaining -= flow.rate * (now - flow.last_t)
        flow.last_t = now
        if flow.remaining <= _EPS_BYTES * max(1.0, flow.nbytes):
            self._complete(flow)
        else:  # pragma: no cover - defensive; only reachable via float drift
            eta = now + flow.remaining / flow.rate if flow.rate > 0 else now
            flow.eta = eta
            flow.timer = self.engine.schedule_at(eta, self._maybe_done, flow)
