"""Tuning service: coalescing, interpolation, replay reuse, contention.

The service's contract (see ``repro/tune/service.py``) is amortization
without drift: caching, coalescing, interpolation and replay reuse may only
change *how much work* is done, never *which record wins* — and given the
same first-miss order the db written through the service must be
byte-identical to :func:`repro.tune.service.tune_serial`.  These tests pin
that contract plus the contention behavior of the underlying store
(generation-ordered eviction under interleaved writers).
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.netmodel.params import MachineParams, NetworkParams
from repro.sim.engine import DeadlineExceeded
from repro.sim.replay import (
    DUMP_SCHEMA,
    ReplayInvalid,
    dump_recording,
    load_recording,
    replay,
    replay_kernel,
)
from repro.tune.db import TuningDB
from repro.tune.graphstore import GraphStore
from repro.tune.search import DEFAULT_SHORTLIST
from repro.tune.service import (
    INTERPOLATION_REL_TOL,
    TuningService,
    degraded_params,
    find_neighbor,
    tune_serial,
)
from repro.tune.signature import signature_for_ssc, signature_for_ssc25d
from repro.tune.tuner import Tuner, interpolation_seeds

SEED = 0


def _spin(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "test orchestration stalled"
        time.sleep(0.0005)


def _stampede(svc: TuningService, plan, gate: threading.Event):
    """Launch one thread per request, each registered before the next."""
    results = [None] * len(plan)
    workers = []
    seen: set[str] = set()
    followers = 0
    for i, sig in enumerate(plan):
        th = threading.Thread(
            target=lambda i=i, sig=sig: results.__setitem__(
                i, svc.tune(sig)), daemon=True)
        th.start()
        workers.append(th)
        if sig.key in seen:
            followers += 1
            want = followers
            _spin(lambda: svc.stats()["coalesced"] >= want)
        else:
            seen.add(sig.key)
            _spin(lambda key=sig.key: key in svc._inflight)
    gate.set()
    for th in workers:
        th.join(timeout=60.0)
        assert not th.is_alive()
    svc.drain()
    return results


class TestSignatureKeys:
    def test_workload_key_strips_fabric_hash(self):
        sig = signature_for_ssc(2, 64)
        assert sig.key.startswith(sig.workload_key + ":")
        perturbed = signature_for_ssc(2, 64, params=NetworkParams(alpha=2e-6))
        assert perturbed.key != sig.key
        assert perturbed.workload_key == sig.workload_key

    def test_family_key_strips_n_only(self):
        a = signature_for_ssc(2, 64)
        b = signature_for_ssc(2, 96)
        assert a.family_key == b.family_key
        assert a.workload_key != b.workload_key
        other_mesh = signature_for_ssc(3, 64)
        assert other_mesh.family_key != a.family_key
        perturbed = signature_for_ssc(2, 64, params=NetworkParams(alpha=2e-6))
        assert perturbed.family_key != a.family_key  # fabric is in the family


class TestFindNeighbor:
    def _tuned(self, n: int) -> object:
        tuner = Tuner(seed=SEED)
        return tuner.autotune_ssc(2, n)

    def test_nearest_in_family_within_tolerance(self):
        rec64 = self._tuned(64)
        rec96 = self._tuned(96)
        sig = signature_for_ssc(2, 66)
        hit = find_neighbor([rec64, rec96], sig, INTERPOLATION_REL_TOL)
        assert hit is rec64

    def test_out_of_tolerance_is_no_neighbor(self):
        rec64 = self._tuned(64)
        sig = signature_for_ssc(2, 96)  # 50% away
        assert find_neighbor([rec64], sig, INTERPOLATION_REL_TOL) is None

    def test_same_n_other_fabric_is_not_family(self):
        rec64 = self._tuned(64)
        sig = signature_for_ssc(2, 64, params=NetworkParams(alpha=2e-6))
        assert find_neighbor([rec64], sig, INTERPOLATION_REL_TOL) is None

    def test_interpolation_seeds_are_scored_trace_entries(self):
        rec = self._tuned(64)
        seeds = interpolation_seeds(rec)
        assert seeds == sorted(seeds, key=lambda c: c.key)
        scored = {t.candidate.key for t in rec.trace if t.sim_time is not None}
        assert {c.key for c in seeds} == scored


class TestDegradedParams:
    def test_fault_plan_scales_nic_bandwidth(self):
        from repro.sim.faults import FaultPlan

        plan = FaultPlan.random(seed=3, num_ranks=8, num_nodes=8,
                                horizon=1.0, kinds=("link",))
        base = NetworkParams()
        eff = degraded_params(base, plan)
        factor = min(s.factor for s in plan.links)
        assert eff.nic_bandwidth == pytest.approx(base.nic_bandwidth * factor)
        # No link degradations -> unchanged constants.
        calm = FaultPlan.random(seed=3, num_ranks=8, num_nodes=8,
                                horizon=1.0, kinds=("jitter",))
        assert degraded_params(base, calm) == base


class TestServiceCoalescing:
    def test_stampede_costs_one_search_per_signature(self):
        sigs = [signature_for_ssc(2, 48), signature_for_ssc25d(2, 2, 48)]
        plan = [sigs[i % 2] for i in range(20)]
        gate = threading.Event()
        svc = TuningService(TuningDB(), seed=SEED, search_gate=gate)
        try:
            results = _stampede(svc, plan, gate)
            stats = svc.stats()
            service_json = svc.db.to_json()
        finally:
            svc.close()
        assert stats["searches"] == 2
        assert stats["coalesced"] == 18
        assert stats["records"] == 2
        # Every thread got the same committed record for its signature.
        for sig, rec in zip(plan, results):
            assert rec.signature.key == sig.key
        by_key = {}
        for rec in results:
            assert by_key.setdefault(rec.signature.key, rec) is rec
        # Byte-identity against the serial twin over the first-miss order.
        assert service_json == tune_serial(sigs, seed=SEED).to_json()

    def test_stampede_counters_pinned(self):
        # The ablation-tune-service stampede at 64 threads over 4
        # signatures, every counter exact.
        from repro.bench.experiments.ablation_tune_service import (
            run_coalescing_stampede,
        )

        assert run_coalescing_stampede(64, 4) == {
            "threads": 64, "signatures": 4, "requests": 64, "searches": 4,
            "coalesced": 60, "hits": 0, "simulations": 12, "aliased": 8,
            "records": 4, "byte_identical": True,
        }

    def test_warm_requests_hit_without_simulating(self):
        sig = signature_for_ssc(2, 48)
        svc = TuningService(TuningDB(), seed=SEED)
        try:
            svc.tune(sig)
            cold = svc.stats()
            for _ in range(50):
                svc.tune(sig)
            warm = svc.stats()
        finally:
            svc.close()
        assert warm["hits"] - cold["hits"] == 50
        assert warm["searches"] == cold["searches"] == 1
        assert warm["simulations"] == cold["simulations"]

    def test_search_failure_propagates_to_all_waiters(self):
        svc = TuningService(TuningDB(), policy="db-only")
        try:
            with pytest.raises(KeyError, match="db-only"):
                svc.tune(signature_for_ssc(2, 48))
        finally:
            svc.close()


class TestServiceLane:
    """Searches run one at a time, in first-miss order."""

    def _misses(self, monkeypatch, fail_first: bool):
        """Two distinct-family misses registered behind the gate, with
        ``Tuner.search_record`` wrapped to log enter/exit."""
        sigs = [signature_for_ssc(2, 48), signature_for_ssc25d(2, 2, 48)]
        assert sigs[0].family_key != sigs[1].family_key
        log: list = []
        real_search = Tuner.search_record

        def search_record(tuner, sig, **kw):
            log.append(("enter", sig.key))
            time.sleep(0.05)    # widen the window an overlap would need
            try:
                if fail_first and sig.key == sigs[0].key:
                    raise RuntimeError("search failed")
                return real_search(tuner, sig, **kw)
            finally:
                log.append(("exit", sig.key))

        monkeypatch.setattr(Tuner, "search_record", search_record)
        gate = threading.Event()
        svc = TuningService(TuningDB(), seed=SEED, search_gate=gate)
        outcomes: dict = {}

        def call(sig):
            try:
                outcomes[sig.key] = svc.tune(sig)
            except RuntimeError as exc:
                outcomes[sig.key] = exc

        threads = []
        for sig in sigs:
            th = threading.Thread(target=call, args=(sig,), daemon=True)
            th.start()
            threads.append(th)
            _spin(lambda key=sig.key: key in svc._inflight)
        gate.set()
        for th in threads:
            th.join(timeout=60.0)
            assert not th.is_alive()
        svc.close()
        return sigs, log, outcomes, svc

    def test_searches_never_overlap_and_commit_in_first_miss_order(
            self, monkeypatch):
        sigs, log, outcomes, svc = self._misses(monkeypatch, False)
        assert log == [("enter", sigs[0].key), ("exit", sigs[0].key),
                       ("enter", sigs[1].key), ("exit", sigs[1].key)]
        assert [outcomes[s.key].generation for s in sigs] == [0, 1]
        assert svc.stats()["searches"] == 2
        assert svc.db.to_json() == tune_serial(sigs, seed=SEED).to_json()

    def test_failed_search_still_passes_the_turn(self, monkeypatch):
        sigs, log, outcomes, svc = self._misses(monkeypatch, True)
        assert [e for e, _k in log] == ["enter", "exit", "enter", "exit"]
        assert isinstance(outcomes[sigs[0].key], RuntimeError)
        assert outcomes[sigs[1].key].signature.key == sigs[1].key
        stats = svc.stats()
        assert stats["searches"] == 1 and stats["inflight"] == 0
        assert svc.db.keys() == [sigs[1].key]


class TestServiceInterpolation:
    def test_near_n_resolves_by_interpolation(self):
        svc = TuningService(TuningDB(), seed=SEED)
        base = signature_for_ssc(2, 64)
        near = signature_for_ssc(2, 67)
        try:
            svc.tune(base)
            cold = svc.stats()
            rec = svc.tune(near)
            stats = svc.stats()
            service_json = svc.db.to_json()
        finally:
            svc.close()
        assert stats["interpolated"] - cold["interpolated"] == 1
        assert stats["searches"] == cold["searches"]
        # Simulator cost bounded by the shortlist, statuses marked.
        assert 1 <= stats["simulations"] - cold["simulations"] \
            <= DEFAULT_SHORTLIST
        assert any(t.status == "interpolated" for t in rec.trace)
        assert rec.best_time is not None
        assert service_json == tune_serial([base, near], seed=SEED).to_json()

    def test_interpolated_record_matches_plain_search_winner(self):
        # The warm start bounds cost; the *winner* must still match a
        # plain search whenever the neighbor's shortlist contains it.
        svc = TuningService(TuningDB(), seed=SEED)
        try:
            svc.tune(signature_for_ssc(2, 64))
            interp = svc.tune(signature_for_ssc(2, 67))
        finally:
            svc.close()
        plain = Tuner(seed=SEED).autotune_ssc(2, 67)
        assert interp.best.key == plain.best.key


class TestServiceSWR:
    def test_stale_while_revalidate_over_fault_plan(self):
        from repro.sim.faults import FaultPlan

        base_params = NetworkParams()
        plan = FaultPlan.random(seed=3, num_ranks=8, num_nodes=8,
                                horizon=1.0, kinds=("link",))
        eff = degraded_params(base_params, plan)
        base = signature_for_ssc(2, 64, params=base_params)
        degraded = signature_for_ssc(2, 64, params=eff)
        assert degraded.key != base.key

        svc = TuningService(TuningDB(), seed=SEED,
                            stale_while_revalidate=True)
        try:
            fresh = svc.tune(base, params=base_params)
            stale = svc.tune(degraded, params=eff)
            assert stale is fresh  # served instantly from the old fabric
            svc.drain()
            stats = svc.stats()
            after = svc.tune(degraded, params=eff)
        finally:
            svc.close()
        assert stats["stale_served"] == 1 and stats["refreshes"] == 1
        assert after.signature.key == degraded.key
        assert stats["records"] == 2

    def test_swr_off_blocks_for_the_search(self):
        from repro.sim.faults import FaultPlan

        base_params = NetworkParams()
        plan = FaultPlan.random(seed=3, num_ranks=8, num_nodes=8,
                                horizon=1.0, kinds=("link",))
        eff = degraded_params(base_params, plan)
        svc = TuningService(TuningDB(), seed=SEED)
        try:
            svc.tune(signature_for_ssc(2, 64, params=base_params),
                     params=base_params)
            rec = svc.tune(signature_for_ssc(2, 64, params=eff), params=eff)
            stats = svc.stats()
        finally:
            svc.close()
        assert rec.signature.key == signature_for_ssc(2, 64, params=eff).key
        assert stats["stale_served"] == 0 and stats["searches"] == 2


class TestGraphStoreReuse:
    def test_fresh_process_scores_by_replay(self, tmp_path):
        db_path = tmp_path / "tune_db.json"
        store = GraphStore.for_db(db_path)
        first = Tuner(db=TuningDB(db_path), seed=SEED, graph_store=store)
        rec1 = first.autotune_ssc(2, 64)
        assert first.simulations > 0 and first.replays == 0
        assert store.load(signature_for_ssc(2, 64).workload_key)
        assert len(list(store.root.glob("*.json"))) == 1

        # A *fresh* tuner (fresh process stand-in) under different fabric
        # constants: shortlist scoring must run entirely through replay.
        perturbed = NetworkParams(alpha=2e-6)
        second = Tuner(db=TuningDB(), seed=SEED,
                       graph_store=GraphStore.for_db(db_path))
        rec2 = second.autotune_ssc(2, 64, params=perturbed)
        assert second.simulations == 0
        assert second.replays > 0
        assert second.replay_loads > 0
        assert rec2.best_time is not None
        assert rec1.signature.workload_key == rec2.signature.workload_key

    def test_corrupt_store_falls_back_to_simulation(self, tmp_path):
        db_path = tmp_path / "tune_db.json"
        store = GraphStore.for_db(db_path)
        Tuner(db=TuningDB(db_path), seed=SEED,
              graph_store=store).autotune_ssc(2, 48)
        wl = signature_for_ssc(2, 48).workload_key
        store.path_for(wl).write_text("{ torn")
        assert store.load(wl) == {}
        fresh = Tuner(db=TuningDB(), seed=SEED,
                      graph_store=GraphStore.for_db(db_path))
        rec = fresh.autotune_ssc(2, 48)
        assert fresh.simulations > 0 and rec.best_time is not None

    def test_save_merges_and_is_atomic(self, tmp_path):
        store = GraphStore(tmp_path / "graphs")
        tuner = Tuner(seed=SEED, graph_store=store)
        tuner.autotune_ssc(2, 48)
        wl = signature_for_ssc(2, 48).workload_key
        before = store.load(wl)
        assert before
        # Re-saving a subset must not drop the other graphs (merge).
        one_key = sorted(before)[0]
        store.save(wl, {one_key: before[one_key]})
        assert set(store.load(wl)) == set(before)
        assert not list((tmp_path / "graphs").glob("*.tmp.*"))


class _CountingStore(GraphStore):
    """A GraphStore that counts its ``save`` calls."""

    saves = 0

    def save(self, workload_key, graphs):
        self.saves += 1
        return super().save(workload_key, graphs)


class TestGraphStorePersistsOnlyNewGraphs:
    def test_all_replay_retune_saves_nothing(self, tmp_path):
        store = _CountingStore(tmp_path / "graphs")
        tuner = Tuner(seed=SEED, graph_store=store)
        tuner.autotune_ssc(2, 64)
        assert store.saves == 1 and tuner.simulations > 0
        # A fresh tuner on the loaded store, new fabric constants: every
        # shortlist entry replays, nothing is recorded, nothing is written.
        store.saves = 0
        fresh = Tuner(seed=SEED, graph_store=store)
        fresh.autotune_ssc(2, 64, params=NetworkParams(alpha=2e-6))
        assert fresh.simulations == 0 and fresh.replays > 0
        assert store.saves == 0

    def test_rerecording_retune_saves_once(self, tmp_path):
        store = _CountingStore(tmp_path / "graphs")
        tuner = Tuner(seed=SEED, graph_store=store)
        tuner.autotune_ssc(2, 64)
        store.saves = 0
        # A structural constant changes: every recording is refused, the
        # shortlist is re-simulated and re-recorded, and the store is
        # rewritten exactly once — holding the new graphs.
        tuner.autotune_ssc(2, 64, params=NetworkParams(send_overhead=1e-6))
        assert tuner.replays == 0
        assert store.saves == 1
        wl = signature_for_ssc(2, 64).workload_key
        assert any(g.params.send_overhead == 1e-6
                   for g in store.load(wl).values())


class TestRecordingRoundtrip:
    def _recording(self):
        from repro.kernels import run_ssc

        return run_ssc(2, 64, "optimized", n_dup=2, record=True).recording

    def test_dump_load_replays_bit_exact(self, tmp_path):
        rec = self._recording()
        path = tmp_path / "graph.json"
        dump_recording(rec, path)
        loaded = load_recording(path)
        for params in (None, NetworkParams(alpha=2e-6)):
            assert replay(loaded, params).final_time \
                == replay(rec, params).final_time

    def test_schema_and_shape_validation(self, tmp_path):
        rec = self._recording()
        doc = rec.to_jsonable()
        assert doc["schema"] == DUMP_SCHEMA == 4
        for other in (2, 3, 99):    # per-node lists, frozen queues, the future
            with pytest.raises(ReplayInvalid, match="schema"):
                load_recording(dict(doc, schema=other))

    def test_machine_params_roundtrip(self):
        from repro.kernels import run_ssc

        machine = MachineParams(node_flops=2e12)
        rec = run_ssc(2, 64, "optimized", n_dup=2, machine=machine,
                      record=True).recording
        loaded = load_recording(rec.to_jsonable())
        assert replay(loaded).final_time == replay(rec).final_time


class TestReplayDeadline:
    def test_deadline_past_final_time_is_inert(self):
        from repro.kernels import run_ssc

        rec = run_ssc(2, 64, "optimized", n_dup=2, record=True).recording
        full = replay(rec)
        again = replay(rec, deadline=full.final_time * 2)
        assert again.final_time == full.final_time
        # replay_kernel mirrors the live Engine.run(until=...) contract:
        # the world time is pinned to the deadline, the kernel time isn't.
        kt0, _ = replay_kernel(rec)
        kt, wt = replay_kernel(rec, deadline=full.final_time * 2)
        assert kt == kt0
        assert wt == full.final_time * 2

    def test_deadline_aborts_early(self):
        from repro.kernels import run_ssc

        rec = run_ssc(2, 64, "optimized", n_dup=2, record=True).recording
        final = replay(rec).final_time
        with pytest.raises(DeadlineExceeded):
            replay(rec, deadline=final * 0.25)
        with pytest.raises(DeadlineExceeded):
            replay_kernel(rec, deadline=final * 0.25)

    def test_search_counts_replay_aborts(self):
        # A warm re-search under constants that penalize the shm-heavy
        # shortlist entries: the incumbent deadline tightens against
        # replayed scores, some replays abort early — counted, not fatal.
        from repro.tune.candidates import (enumerate_candidates,
                                           paper_default_candidate)
        from repro.tune.search import search

        base = NetworkParams()
        sig = signature_for_ssc(2, 64, params=base)
        cands = enumerate_candidates(sig)
        default = paper_default_candidate(sig)
        cache: dict = {}
        search(sig, cands, default, params=base, replay="auto",
               graph_cache=cache)
        slow = base.replace(shm_alpha=base.shm_alpha * 50)
        warm = search(sig, cands, default, params=slow, replay="auto",
                      graph_cache=cache)
        assert warm.simulations == 0
        assert warm.replay_aborts >= 1
        assert any(t.status == "pruned-deadline" for t in warm.trace)
        assert warm.best.sim_time is not None


class TestDBContention:
    def test_generation_ordered_eviction_interleaved_writers(self):
        """Interleaved service commits keep generations dense and evict
        strictly oldest-first once the bound is hit."""
        db = TuningDB(max_records=3)
        gate = threading.Event()
        svc = TuningService(db, seed=SEED, search_gate=gate)
        sigs = [signature_for_ssc(2, 48), signature_for_ssc25d(2, 2, 48),
                signature_for_ssc(2, 64), signature_for_ssc(3, 48)]
        plan = [sigs[i % 4] for i in range(12)]
        try:
            _stampede(svc, plan, gate)
            stats = svc.stats()
        finally:
            svc.close()
        assert stats["searches"] == 4
        # Bound respected; survivors are the *newest* generations in
        # first-miss order (the oldest record was evicted).
        assert len(db) == 3
        gens = sorted(r.generation for r in db._records.values())
        assert gens == [1, 2, 3]
        assert sigs[0].key not in db._records
        # Evicted key is also gone from the service cache (no stale serve).
        assert sigs[0].key not in svc._cache


class TestServiceSerialEquivalence:
    @given(plan=st.lists(st.sampled_from([48, 64, 96]), min_size=1,
                         max_size=6))
    @settings(max_examples=8, deadline=None)
    def test_db_bytes_match_serial_twin(self, plan):
        """Any request sequence: service db == tune_serial db, byte for
        byte, with the service driven in the same (serial) arrival order."""
        sigs = [signature_for_ssc(2, n) for n in plan]
        svc = TuningService(TuningDB(), seed=SEED)
        try:
            for sig in sigs:
                svc.tune(sig)
            service_json = svc.db.to_json()
        finally:
            svc.close()
        assert service_json == tune_serial(sigs, seed=SEED).to_json()


class TestServiceCLI:
    def test_show_and_export_format_json(self, tmp_path, capsys):
        from repro.tune.cli import main

        db_path = tmp_path / "db.json"
        db = TuningDB(db_path)
        Tuner(db=db, seed=SEED).autotune_ssc(2, 48)
        db.save()
        assert main(["show", "--db", str(db_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["records"]) == 1
        key = doc["records"][0]["signature"]["key"]
        assert main(["show", "--db", str(db_path), "--key", key,
                     "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["signature"]["key"] == key
        out_path = tmp_path / "copy.json"
        assert main(["export", "--db", str(db_path), "--output",
                     str(out_path), "--format", "json"]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported == {"exported": 1, "path": str(out_path)}
        assert out_path.read_bytes() == db_path.read_bytes()

    def test_warm_subcommand_interpolates_family(self, tmp_path, capsys):
        from repro.tune.cli import main

        db_path = tmp_path / "db.json"
        assert main(["warm", "ssc", "--p", "2", "--n", "64", "--n", "67",
                     "--db", str(db_path)]) == 0
        out = capsys.readouterr().out
        assert "interpolated: 1" in out
        assert len(TuningDB(db_path)) == 2
        assert GraphStore.for_db(db_path).load(
            signature_for_ssc(2, 64).workload_key)
