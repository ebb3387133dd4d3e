"""Column-form recordings: flatness, recorder algebra, schema, deadlines.

A recording is three tables of typed columns (``repro.sim.replay.Columns``)
with binary max nodes.  These tests pin what that layout promises:

* *flatness* — a sealed recording (and its cached fold) is the same handful
  of GC-tracked objects whatever its node count;
* *algebra* — the hash-consing identities of ``const`` / ``shift`` /
  ``join2``, and replay == direct recursive evaluation on random DAGs;
* *schema* — dump/load is bit-exact per column, older or torn artifacts are
  refused;
* *deadline verdicts* — a bounded replay never reports
  ``DeadlineExceeded`` where the live bounded run finishes (the false
  prune a reordered FIFO queue used to cause).
"""

from __future__ import annotations

import gc
import json
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import run_ssc
from repro.netmodel.params import NetworkParams
from repro.netmodel.topology import Cluster
from repro.sim.engine import DeadlineExceeded
from repro.sim.replay import (
    DUMP_SCHEMA,
    K_CONST,
    K_FLOW,
    K_MAX,
    K_SHIFT,
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


class TestFlatness:
    def test_tracked_objects_do_not_grow_with_the_graph(self):
        small, large = (
            run_ssc(2, 256, "optimized", n_dup=k, record=True).recording
            for k in (2, 8))
        # Same ranks and iterations, so the same marks; ~4x the rest.
        assert set(small.marks) == set(large.marks)
        for table in ("nodes", "flows", "guards"):
            assert len(getattr(large, table)) > 3 * len(getattr(small, table))
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


# -- schema -------------------------------------------------------------------

def _columns(rec: GraphRecorder) -> dict:
    return {f"{table}.{name}": [x.hex() if isinstance(x, float) else x
                                for x in col]
            for table in ("nodes", "flows", "guards")
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
        assert [c.typecode for t in ("nodes", "flows", "guards")
                for c in vars(getattr(loaded, t)).values()] \
            == [c.typecode for t in ("nodes", "flows", "guards")
                for c in vars(getattr(recording, t)).values()]
        assert loaded.marks == recording.marks
        assert loaded.meta == recording.meta
        assert loaded.params == recording.params
        assert loaded.machine == recording.machine
        # Compact: the artifact is a few long lines, not one per number.
        assert path.read_text().count("\n") == 1

    def test_older_schemas_are_refused(self, recording):
        doc = recording.to_jsonable()
        assert doc["schema"] == DUMP_SCHEMA == 3
        for old in (1, 2):
            with pytest.raises(ReplayInvalid, match="re-record"):
                load_recording(dict(doc, schema=old))

    def test_torn_or_malformed_columns_are_refused(self, recording):
        doc = recording.to_jsonable()
        torn = dict(doc, nodes=dict(doc["nodes"], x=doc["nodes"]["x"][:-1]))
        with pytest.raises(ReplayInvalid, match="torn"):
            load_recording(torn)
        for bad in (dict(doc, flows={"src": []}),             # column missing
                    dict(doc, guards=None),                   # table missing
                    dict(doc, nodes=dict(doc["nodes"], a=[0.5]))):  # float id
            with pytest.raises(ReplayInvalid, match="malformed"):
                load_recording(bad)

    def test_old_graphstore_file_is_one_whole_file_miss(self, recording,
                                                        tmp_path):
        store = GraphStore(tmp_path / "graphs")
        path = store.save("wl", {"cand": recording})
        assert set(store.load("wl")) == {"cand"}
        doc = json.loads(path.read_text())
        assert doc["schema"] == GRAPHSTORE_SCHEMA == 2
        path.write_text(json.dumps(dict(doc, schema=1)))
        assert store.load("wl") == {}
        # ... and a save over it starts from nothing instead of merging it.
        store.save("wl", {"other": recording})
        assert set(store.load("wl")) == {"other"}


# -- deadline verdicts --------------------------------------------------------

_N = 5330           # 1hsg_45: where the false prune was found
_PERTURB = (("alpha", 0.8), ("alpha", 1.25), ("nic_bandwidth", 0.9))
_DEADLINES = (0.5, 0.9, 1.0 + 1e-9, 1.0005, 1.1)


def _outcome(fn):
    try:
        return fn()
    except (DeadlineExceeded, ReplayInvalid) as exc:
        return type(exc)


class TestDeadlineVerdict:
    @pytest.mark.parametrize("p", [2, 3])
    def test_bounded_replay_never_prunes_what_the_live_run_finishes(self, p):
        """Every N_DUP >= 4 shortlist graph x perturbation x deadline: the
        replay refuses, or does exactly what ``run(until=deadline)`` does."""
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
        refused = served = 0
        for field, factor in _PERTURB:
            params = base.replace(**{field: getattr(base, field) * factor})
            sig = signature_for_ssc(p, _N, params=params)
            for cand, graph in graphs:
                eff = effective_params(cand, params)
                _kt, world = simulate_candidate(sig, cand, params)
                for scale in _DEADLINES:
                    deadline = world * scale
                    got = _outcome(lambda: replay_kernel(
                        graph, eff, deadline=deadline))
                    if got is ReplayInvalid:
                        refused += 1
                        continue
                    served += 1
                    assert got == _outcome(lambda: simulate_candidate(
                        sig, cand, params, deadline=deadline)), \
                        (cand.key, field, factor, scale)
        assert served and (p == 2 or refused)

    def test_false_prune_repro(self):
        """p=3, nd8 graph under nic_bandwidth x0.9: the queue reorders, so
        the replay must refuse at every deadline — it used to report
        DeadlineExceeded just past the live finish."""
        tuner = Tuner(replay="on")
        record = tuner.autotune_ssc(3, _N)
        wl = record.signature.workload_key
        key = "optimized:m3x3x3:nd8:ppn1:auto"
        cand = next(t.candidate for t in record.trace
                    if t.candidate.key == key)
        base = NetworkParams()
        params = base.replace(nic_bandwidth=0.9 * base.nic_bandwidth)
        eff = effective_params(cand, params)
        _kt, world = simulate_candidate(
            signature_for_ssc(3, _N, params=params), cand, params)
        for deadline in (None, world * (1 + 1e-9), world * 1.0005):
            with pytest.raises(ReplayInvalid):
                replay_kernel(tuner.graph_cache[wl, key], eff,
                              deadline=deadline)
