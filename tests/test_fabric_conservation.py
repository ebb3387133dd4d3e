"""Property-based conservation invariants for the fabric, faults included.

The fluid model must conserve bytes no matter how transfers, rate reshares
and fault windows interleave: every posted flow completes exactly once,
cumulative byte counters equal what was posted, and no flow's ``remaining``
ever drops below ``-_EPS_BYTES`` at any rate change.  A probe subclass
asserts the invariants *during* the run (at every recompute) rather than
only at the end, so a violation pinpoints the instant it happened.

Also pins the `_flows_at` leak fix: resource keys whose flow sets drain
must be pruned, so long-lived fabrics stay O(active flows), not O(every
resource ever touched).

The determinism case compares two runs share-by-share (every rate
assignment at every recompute), not just on their end-state counters.
"""

from hypothesis import given, settings, strategies as st

from repro.netmodel import NetworkParams
from repro.netmodel.fabric import _EPS_BYTES, Fabric
from repro.netmodel.topology import block_placement
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, LinkDegradation, NicJitter

RANKS = 8
PPN = 2


class ProbeFabric(Fabric):
    """Fabric that checks conservation invariants at every recompute.

    Also keeps ``rate_log`` — a per-recompute snapshot of every active
    flow's assigned rate — so two runs can be compared share-by-share,
    not just on their end-state byte counters.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.completions: list[tuple[float, float]] = []  # (nbytes, residual)
        self.rate_log: list[tuple] = []  # (now, ((fid, rate), ...))

    def _update(self, keys):
        super()._update(keys)
        seen: dict[int, float] = {}
        for flows in self._flows_at.values():
            for f in flows.values():
                assert f.remaining >= -_EPS_BYTES, (
                    f"flow {f.fid} remaining {f.remaining} < -eps"
                )
                assert f.rate >= 0.0
                if f.rate > 0.0:
                    assert f.eta >= self.engine.now
                seen[f.fid] = f.rate
        self.rate_log.append(
            (self.engine.now, tuple(sorted(seen.items())))
        )

    def _complete(self, flow):
        self.completions.append((flow.nbytes, flow.remaining))
        super()._complete(flow)


def drive(flow_spec, faults=None):
    """Post (src, dst_offset, nbytes, t_start) flows; run to completion."""
    eng = Engine()
    fab = ProbeFabric(eng, block_placement(RANKS, PPN),
                      NetworkParams(), faults=faults)
    finish_times = []
    for (src, doff, nbytes, t0) in flow_spec:
        dst = (src + 1 + doff) % RANKS

        def start(src=src, dst=dst, nbytes=nbytes):
            ev = fab.transfer(src, dst, nbytes)
            ev.add_callback(lambda _e: finish_times.append(eng.now))

        eng.call_after(t0, start)
    eng.run()
    return eng, fab, finish_times


FLOWS = st.lists(
    st.tuples(
        st.integers(0, RANKS - 1),               # src
        st.integers(0, RANKS - 2),               # dst offset (never self)
        st.integers(0, 4_000_000),               # bytes
        st.floats(0, 0.02, allow_nan=False),     # start time
    ),
    min_size=1,
    max_size=14,
)

N_CHANNELS = 4

CHANNEL_FLOWS = st.lists(
    st.tuples(
        st.integers(0, RANKS - 1),               # src
        st.integers(0, RANKS - 2),               # dst offset (never self)
        st.integers(0, 4_000_000),               # bytes
        st.floats(0, 0.02, allow_nan=False),     # start time
        st.integers(0, N_CHANNELS - 1),          # channel
    ),
    min_size=1,
    max_size=14,
)


def drive_channels(flow_spec, faults=None):
    """Like :func:`drive`, but each flow rides its spec's channel."""
    eng = Engine()
    fab = ProbeFabric(eng, block_placement(RANKS, PPN),
                      NetworkParams(num_channels=N_CHANNELS),
                      faults=faults)
    finish_times = []
    for (src, doff, nbytes, t0, channel) in flow_spec:
        dst = (src + 1 + doff) % RANKS

        def start(src=src, dst=dst, nbytes=nbytes, channel=channel):
            ev = fab.transfer(src, dst, nbytes, channel=channel)
            ev.add_callback(lambda _e: finish_times.append(eng.now))

        eng.call_after(t0, start)
    eng.run()
    return eng, fab, finish_times


def check_channels_conserved(fab, flow_spec, finish_times):
    """Per-lane byte/message conservation on top of the global invariants."""
    assert len(finish_times) == len(flow_spec)
    posted_bytes = [0.0] * N_CHANNELS
    posted_msgs = [0] * N_CHANNELS
    for (_src, _doff, nbytes, _t0, channel) in flow_spec:
        posted_bytes[channel] += nbytes
        posted_msgs[channel] += 1
    stats = fab.snapshot_stats()
    assert stats["channel_bytes"] == posted_bytes
    assert stats["channel_messages"] == posted_msgs
    # The lanes partition exactly the traffic the global counters hold.
    assert sum(stats["channel_bytes"]) == (fab.inter_node_bytes
                                           + fab.intra_node_bytes)
    assert sum(stats["channel_messages"]) == (fab.inter_node_messages
                                              + fab.intra_node_messages)
    assert fab._flows_at == {}
    assert fab._dirty == {}

WINDOWS = st.lists(
    st.tuples(
        st.integers(0, RANKS // PPN - 1),        # node
        st.floats(0.0, 0.02, allow_nan=False),   # window start
        st.floats(0.001, 0.05, allow_nan=False),  # window length
        st.floats(0.05, 1.0, allow_nan=False),   # bandwidth factor
    ),
    min_size=0,
    max_size=3,
)


def check_conserved(fab, flow_spec, finish_times):
    assert len(finish_times) == len(flow_spec)  # every flow completes once
    cluster = fab.cluster
    posted_inter = posted_intra = 0
    for (src, doff, nbytes, _t0) in flow_spec:
        dst = (src + 1 + doff) % RANKS
        if cluster.same_node(src, dst):
            posted_intra += nbytes
        else:
            posted_inter += nbytes
    assert fab.inter_node_bytes == posted_inter
    assert fab.intra_node_bytes == posted_intra
    for nbytes, residual in fab.completions:
        assert residual >= -_EPS_BYTES * max(1.0, nbytes)
        assert residual <= _EPS_BYTES * max(1.0, nbytes)
    # Leak fix: drained resource keys are pruned, dirty set fully consumed.
    assert fab._flows_at == {}
    assert fab._dirty == {}


def check_runs_agree(run_a, run_b):
    """Two runs of one flow spec must be observationally identical."""
    eng_a, fab_a, finish_a = run_a
    eng_b, fab_b, finish_b = run_b
    assert finish_a == finish_b              # completion instants, in order
    assert fab_a.completions == fab_b.completions  # byte accounting per flow
    assert fab_a.rate_log == fab_b.rate_log  # every share assignment, every
    assert fab_a.inter_node_bytes == fab_b.inter_node_bytes  # recompute
    assert fab_a.intra_node_bytes == fab_b.intra_node_bytes
    assert eng_a.events_processed == eng_b.events_processed
    assert eng_a.events_cancelled == eng_b.events_cancelled
    assert eng_a.peak_heap_size == eng_b.peak_heap_size


class TestConservation:
    @settings(max_examples=40, deadline=None)
    @given(flows=FLOWS)
    def test_arbitrary_interleavings_conserve_bytes(self, flows):
        eng, fab, finish = drive(flows)
        check_conserved(fab, flows, finish)
        assert eng.idle  # heap fully drained (dead entries reaped)

    @settings(max_examples=40, deadline=None)
    @given(flows=FLOWS, windows=WINDOWS, seed=st.integers(0, 3))
    def test_fault_windows_conserve_bytes(self, flows, windows, seed):
        specs = []
        for (node, t0, length, factor) in windows:
            specs.append(LinkDegradation(node=node, t_start=t0,
                                         t_end=t0 + length, factor=factor))
        specs.append(NicJitter(node=0, t_start=0.0, t_end=0.05,
                               max_extra_latency=1e-5))
        eng, fab, finish = drive(flows, faults=FaultPlan(specs, seed=seed))
        check_conserved(fab, flows, finish)
        assert eng.idle

    @settings(max_examples=30, deadline=None)
    @given(flows=CHANNEL_FLOWS)
    def test_random_channel_assignment_conserves_per_lane(self, flows):
        eng, fab, finish = drive_channels(flows)
        check_channels_conserved(fab, flows, finish)
        assert eng.idle

    @settings(max_examples=30, deadline=None)
    @given(flows=CHANNEL_FLOWS, windows=WINDOWS, seed=st.integers(0, 3))
    def test_channel_conservation_under_fault_interleavings(self, flows,
                                                            windows, seed):
        specs = []
        for (node, t0, length, factor) in windows:
            specs.append(LinkDegradation(node=node, t_start=t0,
                                         t_end=t0 + length, factor=factor))
        specs.append(NicJitter(node=0, t_start=0.0, t_end=0.05,
                               max_extra_latency=1e-5))
        eng, fab, finish = drive_channels(
            flows, faults=FaultPlan(specs, seed=seed))
        check_channels_conserved(fab, flows, finish)
        assert eng.idle

    @settings(max_examples=20, deadline=None)
    @given(flows=FLOWS)
    def test_runs_are_deterministic(self, flows):
        check_runs_agree(drive(flows), drive(flows))


class TestHeapHygieneUnderLoad:
    def test_sequential_flows_keep_heap_and_flows_at_bounded(self):
        """200 back-to-back flows: no growth in heap or resource table."""
        eng = Engine()
        fab = ProbeFabric(eng, block_placement(RANKS, PPN), NetworkParams())
        state = {"left": 200}

        def post(_e=None):
            if state["left"] == 0:
                return
            state["left"] -= 1
            src = state["left"] % RANKS
            ev = fab.transfer(src, (src + 3) % RANKS, 500_000)
            ev.add_callback(post)

        post()
        eng.run()
        assert len(fab.completions) == 200
        assert fab._flows_at == {}
        # One flow in flight at a time: the heap must stay O(1), not O(#flows).
        assert eng.peak_heap_size < 12

    def test_burst_cancellations_stay_compacted(self):
        """A big overlapping burst exercises reshare-driven reschedules."""
        eng = Engine()
        fab = ProbeFabric(eng, block_placement(64, 1), NetworkParams())
        for i in range(256):
            src = i % 64
            # Mixed sizes so completions stagger and survivors get rate
            # bumps (uniform sizes finish in lockstep with zero reshares).
            fab.transfer(src, (src + 1 + i % 7) % 64,
                         2_000_000 + (i % 5) * 400_000)
        eng.run()
        assert len(fab.completions) == 256
        assert fab._flows_at == {}
        # Superseded completion timers are cancelled and compacted away:
        # the heap never holds more than a small multiple of the live flows.
        assert eng.peak_heap_size <= 4 * 256
        assert eng.events_cancelled > 0
