"""Column-form recordings: flatness, recorder algebra, schema, deadlines.

A recording is two tables of typed columns (``repro.sim.replay.Columns``)
with binary max nodes and FIFO submissions as task nodes.  These tests pin
what that layout promises:

* *flatness* — a sealed recording (and its cached fold) is the same handful
  of GC-tracked objects whatever its node count, and the tuner's graph
  cache parks recordings without their fold;
* *algebra* — the hash-consing identities of ``const`` / ``shift`` /
  ``join2``, replay == direct recursive evaluation on random DAGs, and
  replayed FIFO queues == a reference queue under random arrival orders;
* *schema* — dump/load is bit-exact per column, older or torn artifacts are
  refused;
* *deadline verdicts* — a bounded replay does exactly what the live bounded
  run does, also where the perturbation reorders a FIFO queue (which used
  to refuse, and before that to prune falsely).
"""

from __future__ import annotations

import gc
import hashlib
import json
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.dense import run_summa
from repro.kernels import run_ssc, run_ssc25d
from repro.netmodel.params import NetworkParams
from repro.netmodel.topology import Cluster
from repro.sim.engine import DeadlineExceeded
from repro.sim.replay import (
    DUMP_SCHEMA,
    K_CONST,
    K_FLOW,
    K_MAX,
    K_SHIFT,
    K_TASK,
    GraphRecorder,
    ReplayInvalid,
    dump_recording,
    load_recording,
    replay,
    replay_kernel,
)
from repro.tune.candidates import effective_params
from repro.tune.graphstore import GRAPHSTORE_SCHEMA, GraphStore
from repro.tune.search import simulate_candidate
from repro.tune.signature import signature_for_ssc
from repro.tune.tuner import Tuner


# -- flatness -----------------------------------------------------------------

def _tracked_objects(root) -> int:
    """GC-tracked objects reachable from ``root`` (code objects excluded:
    classes, functions and modules are the program, not the recording)."""
    gc.collect()
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType)
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        count += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                stack.append(ref)
    return count


def _largest_container(root) -> int:
    """Length of the longest list/tuple/dict/set reachable from ``root``."""
    seen = {id(root)}
    stack = [root]
    longest = 0
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple, dict, set, frozenset)):
            longest = max(longest, len(obj))
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(
                    ref, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(ref))
                stack.append(ref)
    return longest


class TestFlatness:
    def test_tracked_objects_do_not_grow_with_the_graph(self):
        small, large = (
            run_ssc(2, 256, "optimized", n_dup=k, record=True).recording
            for k in (2, 8))
        # Same ranks and iterations, so the same marks; ~4x the rest.
        assert set(small.marks) == set(large.marks)
        for table in ("nodes", "flows"):
            assert len(getattr(large, table)) > 3 * len(getattr(small, table))
        assert (large.kinds.count(K_TASK) > 3 * small.kinds.count(K_TASK) > 0)
        for rec in (small, large):
            replay_kernel(rec)      # seals, and caches the fold on rec
            assert rec._plan is not None
            assert not (rec._const_cons or rec._shift_cons or rec._max_cons)
        assert _tracked_objects(small) == _tracked_objects(large)

    def test_search_seals_what_it_caches(self):
        tuner = Tuner(replay="on")
        tuner.autotune_ssc(2, 48)
        assert tuner.graph_cache
        for rec in tuner.graph_cache.values():
            assert not (rec._const_cons or rec._shift_cons or rec._max_cons)

    def test_served_and_cached_recording_holds_no_fold(self):
        """A re-tune served by replay leaves its graphs parked as bare
        columns: the fold (per-node Python lists) went with the scoring."""
        tuner = Tuner(replay="on")
        tuner.autotune_ssc(2, 256)
        base = NetworkParams()
        tuner.autotune_ssc(2, 256, params=base.replace(alpha=1.25 * base.alpha))
        assert tuner.replays >= 2 and not tuner.replay_refusals
        for rec in tuner.graph_cache.values():
            assert rec._plan is None
            assert _largest_container(rec) < len(rec.kinds) // 8
        # ... and dropping is what a holder does after its own batch.
        rec = next(iter(tuner.graph_cache.values()))
        replay_kernel(rec)
        assert rec._plan is not None
        rec.drop_fold()
        assert rec._plan is None


# -- recorder algebra ---------------------------------------------------------

#: A DAG as build steps over earlier nodes (indices taken modulo the
#: number of nodes built so far): const, shift, join, flow.
_STEP = st.one_of(
    st.tuples(st.just("const"), st.floats(0.0, 1e-3)),
    st.tuples(st.just("shift"), st.integers(0), st.floats(0.0, 1e-4)),
    st.tuples(st.just("join"), st.integers(0), st.integers(0)),
    st.tuples(st.just("flow"), st.integers(0), st.integers(0, 3),
              st.integers(0, 3), st.integers(0, 1 << 20)),
)


def _build(steps) -> tuple[GraphRecorder, list[int]]:
    rec = GraphRecorder(cluster=Cluster([0, 0, 1, 1]))
    built = [rec.const(0.0)]

    def pick(k: int) -> int:
        return built[k % len(built)]

    for step in steps:
        if step[0] == "const":
            built.append(rec.const(step[1]))
        elif step[0] == "shift":
            built.append(rec.shift(pick(step[1]), step[2]))
        elif step[0] == "join":
            built.append(rec.join2(pick(step[1]), pick(step[2])))
        else:
            _op, post, src, dst, nbytes = step
            built.append(rec.flow(src, dst, nbytes, 1e-6, pick(post)))
    return rec, built


class TestRecorderAlgebra:
    @given(steps=st.lists(_STEP, max_size=40), i=st.integers(0),
           j=st.integers(0))
    @settings(max_examples=150, deadline=None)
    def test_join2_identities(self, steps, i, j):
        rec, built = _build(steps)
        x, y = built[i % len(built)], built[j % len(built)]
        m = rec.join2(x, y)
        assert rec.join2(y, x) == m                       # commutative
        assert rec.join2(x, x) == x                       # idempotent
        assert rec.join2(x, None) == x and rec.join2(None, x) == x
        assert rec.join2(None, None) is None
        n = len(rec.kinds)
        assert rec.join2(m, x) == m and rec.join2(y, m) == m   # absorbed
        assert rec.join2(x, y) == m                       # hash-consed
        assert len(rec.kinds) == n

    @given(steps=st.lists(_STEP, max_size=40), i=st.integers(0),
           t=st.floats(0.0, 1.0), delta=st.floats(1e-9, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_const_and_shift_dedupe(self, steps, i, t, delta):
        rec, built = _build(steps)
        x = built[i % len(built)]
        assert rec.shift(x, 0.0) == x
        assert rec.const(t) == rec.const(t)
        assert rec.shift(x, delta) == rec.shift(x, delta) != x
        rec.seal()      # constructors still work, they just stop deduping
        assert rec.kinds[rec.const(t)] == K_CONST

    @given(steps=st.lists(_STEP, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_replay_equals_recursive_evaluation(self, steps):
        rec, built = _build(steps)
        for k, node in enumerate(built):
            rec.mark(("node", k), node)
        result = replay(rec)
        flow_times = result.flow_times
        nodes, flows = rec.nodes, rec.flows

        def value(i: int) -> float:
            kind = nodes.kind[i]
            if kind == K_CONST:
                return nodes.x[i]
            if kind == K_SHIFT:
                return value(nodes.a[i]) + nodes.x[i]
            if kind == K_MAX:
                return max(value(nodes.a[i]), value(nodes.b[i]))
            assert kind == K_FLOW
            return flow_times[nodes.a[i]]

        for k, node in enumerate(built):
            assert result.marks[("node", k)] == value(node)
        # A flow lands no earlier than its post time plus its latency.
        for fi, post in enumerate(flows.post):
            assert flow_times[fi] >= value(post) + flows.extra[fi]
        assert result.final_time == max(map(value, range(len(rec.kinds))))
        assert (result.n_nodes, result.n_flows) == (len(rec.kinds), len(flows))


# -- FIFO task queues ---------------------------------------------------------

def _reference_fifo(arrivals) -> dict:
    """``[(arrival, order, duration)]`` of one queue -> ``{order: finish}``:
    ``ProgressEngine.submit_cb``'s arithmetic, in arrival order."""
    busy = 0.0
    finish = {}
    for arrival, order, duration in sorted(arrivals):
        busy = finish[order] = max(arrival, busy) + duration
    return finish


_TASK = st.tuples(st.integers(0, 2),            # queue
                  st.integers(0, 3),            # rides flow k (3: no flow)
                  st.floats(0.0, 2e-4))         # duration


class TestTaskQueues:
    """A K_TASK node is served by its queue in *replayed* arrival order."""

    @staticmethod
    def _record(tasks, slots):
        """Tasks recorded in list order, arriving in ``slots`` order: task k
        reaches its queue ``slots[k]`` x 10 us after its flow lands (or
        after t=0)."""
        rec = GraphRecorder(cluster=Cluster([0, 0, 1, 1]))
        t0 = rec.const(0.0)
        flows = [rec.flow(src, dst, nbytes, 1e-6, t0)
                 for src, dst, nbytes in ((0, 2, 3e5), (1, 3, 5e5), (0, 1, 7e5))]
        for k, ((queue, ride, duration), slot) in enumerate(zip(tasks, slots)):
            base = flows[ride] if ride < 3 else t0
            arrival = rec.shift(base, slot * 1e-5)
            rec.mark(("arrival", k), arrival)
            rec.mark(("finish", k), rec.task(queue, arrival, duration))
        return rec

    @given(data=st.data(), tasks=st.lists(_TASK, min_size=1, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_random_arrival_orders_match_a_reference_fifo(self, data, tasks):
        slots = data.draw(st.permutations(range(1, len(tasks) + 1)))
        rec = self._record(tasks, slots)
        # Not the recording's constants, so no order is taken on trust.
        result = replay(rec, rec.params.replace(alpha=2.0 * rec.params.alpha))
        for queue in range(3):
            arrivals = [(result.marks["arrival", k], k, duration)
                        for k, (q, _ride, duration) in enumerate(tasks)
                        if q == queue]
            assert len({a for a, _k, _d in arrivals}) == len(arrivals)
            for k, finish in _reference_fifo(arrivals).items():
                assert result.marks["finish", k].hex() == finish.hex()

    def test_statically_timed_ties_take_recorded_order(self):
        """No constant moves a static instant, or the order the live engine
        gives two of them: served as recorded, whatever the constants."""
        tasks = [(0, 3, 1e-4), (0, 3, 2e-4), (1, 3, 1e-4)]
        rec = self._record(tasks, [5, 5, 5])
        for params in (None, rec.params.replace(alpha=2.0 * rec.params.alpha)):
            marks = replay(rec, params).marks
            assert marks["finish", 0] == 5e-5 + 1e-4
            assert marks["finish", 1] == marks["finish", 0] + 2e-4
            assert marks["finish", 2] == 5e-5 + 1e-4

    def test_a_timer_and_a_delivery_of_one_instant_are_refused(self):
        """One task rides a flow, the other a timer set for the very instant
        the flow lands: live, their order falls out of engine sequence
        numbers the graph does not hold."""
        def record(timer):
            rec = GraphRecorder(cluster=Cluster([0, 0, 1, 1]))
            flow = rec.flow(0, 2, 3e5, 1e-6, rec.const(0.0))
            rec.mark("rode", rec.task(0, flow, 1e-4))
            rec.mark(("proc_done", 0), rec.task(0, rec.const(timer), 1e-4))
            return rec

        params = record(0.0).params
        params = params.replace(alpha=2.0 * params.alpha)
        landed = replay(record(1.0), params).flow_times[0]
        tie = "ambiguous same-instant order in a FIFO compute queue"
        with pytest.raises(ReplayInvalid, match=tie):
            replay(record(landed), params)
        # ... also where a deadline past the tie would cut the run short:
        # a tie before the deadline refuses, it never prunes.
        with pytest.raises(ReplayInvalid, match=tie):
            replay(record(landed), params, deadline=landed + 5e-5)
        with pytest.raises(DeadlineExceeded):
            replay(record(landed), params, deadline=landed / 2)
        # Any other instant is served, in arrival order.
        marks = replay(record(landed / 2), params).marks
        assert marks["rode"] == landed / 2 + 1e-4 + 1e-4
        marks = replay(record(landed + 5e-5), params).marks
        assert marks["proc_done", 0] == landed + 1e-4 + 1e-4
        # At the recording's own constants the recorded order is the order.
        rec = record(replay(record(1.0)).flow_times[0])
        marks = replay(rec).marks
        assert marks["proc_done", 0] == marks["rode"] + 1e-4

    def test_timers_of_one_instant_fire_in_arming_order_or_are_refused(self):
        """Two equal flows posted at one instant land together; each
        delivery arms a timer for one later instant and both timers feed
        queue 0.  Timers fire in the order they were armed, which is known
        iff the order of the two posts is: posted by one dispatch the
        replay is served, posted by a delivery and by a timer set for the
        very instant it lands it is refused — unless the constants are the
        recording's own."""
        def record(landed):
            rec = GraphRecorder(cluster=Cluster([0, 0, 1, 1]))
            first = rec.flow(0, 2, 3e5, 1e-6, rec.const(0.0))
            posts = (first, first if landed is None else rec.const(landed))
            for k, (post, (src, dst)) in enumerate(zip(posts, ((0, 2), (1, 3)))):
                timer = rec.shift(rec.flow(src, dst, 2e5, 1e-6, post), 1e-5)
                done = rec.task(0, timer, 1e-4)
                rec.mark(k, done)
                rec.task(1 + k, done, 1e-4)     # its finish arms more work
            return rec

        params = record(None).params
        params = params.replace(alpha=2.0 * params.alpha)
        result = replay(record(None), params)
        first, one, other = result.flow_times
        assert one == other                     # they do land together
        assert result.marks[0] == one + 1e-5 + 1e-4
        assert result.marks[1] == result.marks[0] + 1e-4
        with pytest.raises(ReplayInvalid, match="ambiguous same-instant"):
            replay(record(first), params)
        rec = record(replay(record(None)).flow_times[0])
        marks = replay(rec).marks
        assert marks[1] == marks[0] + 1e-4

    def test_identity_takes_recorded_order_however_the_tie_resolves(self):
        """Three tasks tied on one queue, recorded against the order of
        their arrival nodes — the order the propagation releases them in:
        an identity replay still prices them 0, 1, 2; any other refuses."""
        rec = GraphRecorder(cluster=Cluster([0, 0, 1, 1]))
        flow = rec.flow(0, 2, 1e5, 1e-6, rec.const(0.0))
        arrivals = [rec.join2(flow, rec.const((k + 1) * 1e-9)) for k in range(3)]
        for k, arrival in enumerate(reversed(arrivals)):
            rec.mark(k, rec.task(0, arrival, (k + 1) * 1e-4))
        result = replay(rec)
        busy = result.flow_times[0]
        for k in range(3):
            busy += (k + 1) * 1e-4
            assert result.marks[k] == busy
        with pytest.raises(ReplayInvalid, match="ambiguous same-instant"):
            replay(rec, rec.params.replace(alpha=2.0 * rec.params.alpha))


# -- schema -------------------------------------------------------------------

def _columns(rec: GraphRecorder) -> dict:
    return {f"{table}.{name}": [x.hex() if isinstance(x, float) else x
                                for x in col]
            for table in ("nodes", "flows")
            for name, col in vars(getattr(rec, table)).items()}


class TestSchema:
    @pytest.fixture(scope="class")
    def recording(self):
        return run_ssc(2, 64, "optimized", n_dup=4, record=True).recording

    def test_roundtrip_is_bit_exact_per_column(self, recording, tmp_path):
        path = tmp_path / "graph.json"
        dump_recording(recording, path)
        loaded = load_recording(path)
        assert _columns(loaded) == _columns(recording)
        assert [c.typecode for t in ("nodes", "flows")
                for c in vars(getattr(loaded, t)).values()] \
            == [c.typecode for t in ("nodes", "flows")
                for c in vars(getattr(recording, t)).values()]
        assert loaded.marks == recording.marks
        assert loaded.meta == recording.meta
        assert loaded.params == recording.params
        assert loaded.machine == recording.machine
        # Compact: the artifact is a few long lines, not one per number.
        assert path.read_text().count("\n") == 1

    def test_older_schemas_are_refused(self, recording):
        doc = recording.to_jsonable()
        assert doc["schema"] == DUMP_SCHEMA == 4
        for old in (1, 2, 3):
            with pytest.raises(ReplayInvalid, match="re-record"):
                load_recording(dict(doc, schema=old))

    def test_torn_or_malformed_columns_are_refused(self, recording):
        doc = recording.to_jsonable()
        torn = dict(doc, nodes=dict(doc["nodes"], x=doc["nodes"]["x"][:-1]))
        with pytest.raises(ReplayInvalid, match="torn"):
            load_recording(torn)
        for bad in (dict(doc, flows={"src": []}),             # column missing
                    dict(doc, flows=None),                    # table missing
                    dict(doc, nodes=dict(doc["nodes"], a=[0.5]))):  # float id
            with pytest.raises(ReplayInvalid, match="malformed"):
                load_recording(bad)

    def test_old_graphstore_file_is_one_whole_file_miss(self, recording,
                                                        tmp_path):
        store = GraphStore(tmp_path / "graphs")
        path = store.save("wl", {"cand": recording})
        assert set(store.load("wl")) == {"cand"}
        doc = json.loads(path.read_text())
        assert doc["schema"] == GRAPHSTORE_SCHEMA == 3
        for old in (1, 2):
            path.write_text(json.dumps(dict(doc, schema=old)))
            assert store.load("wl") == {}
        # ... and a save over it starts from nothing instead of merging it.
        store.save("wl", {"other": recording})
        assert set(store.load("wl")) == {"other"}


#: sha256 of ``dump_recording`` per kernel run.  Each mixes eager and
#: rendezvous messages, collective-internal and user-level point-to-point
#: traffic.  The recorded graph is a pure function of what the simulator
#: does: a host-side change to the per-message path (callback vs request
#: completion, skipped empty rounds) must leave it node-for-node the same.
_DUMP_PINS = {
    "ssc-p3-nd4": (
        lambda: run_ssc(3, 1536, "optimized", n_dup=4, record=True),
        "4a993c568faebfe4d98cfa135e6e2390e5af61c87f5c18ae44b42e44da1db831"),
    "ssc25d-2x2x2": (
        lambda: run_ssc25d(2, 2, 512, n_dup=2, record=True),
        "0b19f93648f8f1c3840a6761c23ea7080785c08a5d379ad3a178bfe33801e31a"),
    "summa-4x4-colored2": (
        lambda: run_summa(4, 640, algorithm="colored", colors=2, depth=2,
                          record=True),
        "f67135e21412bc07642fab1e3773839fcb38a92cac258f2730b7047bc54d6b89"),
}


@pytest.mark.parametrize("name", sorted(_DUMP_PINS))
def test_recording_dump_is_pinned(name, tmp_path):
    run, expected = _DUMP_PINS[name]
    rec = run().recording
    assert rec.valid, rec.invalid_reason
    path = tmp_path / "graph.json"
    dump_recording(rec, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


# -- deadline verdicts --------------------------------------------------------

_N = 5330           # 1hsg_45: where the false prune was found
_PERTURB = (("alpha", 0.8), ("alpha", 1.25), ("nic_bandwidth", 0.9))
_DEADLINES = (0.5, 0.9, 1.0 + 1e-9, 1.0005, 1.1)


def _outcome(fn):
    try:
        return fn()
    except DeadlineExceeded as exc:
        return type(exc)


class TestDeadlineVerdict:
    @pytest.mark.parametrize("p", [2, 3])
    def test_bounded_replay_never_prunes_what_the_live_run_finishes(self, p):
        """Every N_DUP >= 4 shortlist graph x perturbation x deadline: the
        replay follows the reordered queues and does exactly what
        ``run(until=deadline)`` does — finish with the same times, or
        ``DeadlineExceeded``."""
        tuner = Tuner(replay="on")
        record = tuner.autotune_ssc(p, _N)
        base = NetworkParams()
        graphs = [(t.candidate, tuner.graph_cache[record.signature.workload_key,
                                                  t.candidate.key])
                  for t in record.trace
                  if t.candidate.n_dup >= 4 and
                  (record.signature.workload_key, t.candidate.key)
                  in tuner.graph_cache]
        assert graphs
        for field, factor in _PERTURB:
            params = base.replace(**{field: getattr(base, field) * factor})
            sig = signature_for_ssc(p, _N, params=params)
            for cand, graph in graphs:
                eff = effective_params(cand, params)
                _kt, world = simulate_candidate(sig, cand, params)
                for scale in _DEADLINES:
                    deadline = world * scale
                    assert _outcome(lambda: replay_kernel(
                        graph, eff, deadline=deadline)) == _outcome(
                            lambda: simulate_candidate(
                                sig, cand, params, deadline=deadline)), \
                        (cand.key, field, factor, scale)

    def test_false_prune_repro(self):
        """p=3, nd8 graph under nic_bandwidth x0.9 reorders a queue: a
        replay that froze the recorded order reported DeadlineExceeded just
        past the live finish, then refused; now it is served, bit-equal."""
        tuner = Tuner(replay="on")
        record = tuner.autotune_ssc(3, _N)
        wl = record.signature.workload_key
        key = "optimized:m3x3x3:nd8:ppn1:auto"
        cand = next(t.candidate for t in record.trace
                    if t.candidate.key == key)
        base = NetworkParams()
        params = base.replace(nic_bandwidth=0.9 * base.nic_bandwidth)
        eff = effective_params(cand, params)
        sig = signature_for_ssc(3, _N, params=params)
        _kt, world = simulate_candidate(sig, cand, params)
        for deadline in (None, world * (1 + 1e-9), world * 1.0005):
            assert replay_kernel(tuner.graph_cache[wl, key], eff,
                                 deadline=deadline) \
                == simulate_candidate(sig, cand, params, deadline=deadline)
