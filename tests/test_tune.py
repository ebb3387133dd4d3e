"""repro.tune — signatures, candidates, db, search determinism, policies."""

import json

import pytest

from repro.kernels import run_ssc, run_ssc25d
from repro.netmodel.params import MachineParams, NetworkParams
from repro.sim.engine import DeadlineExceeded
from repro.tune import (
    Candidate,
    TuningDB,
    TuningRecord,
    WorkloadSignature,
    enumerate_candidates,
    fabric_hash,
    paper_default_candidate,
    signature_for_ssc,
    signature_for_ssc25d,
    validate_ssc25d_config,
    validate_ssc_config,
)
from repro.tune.candidates import apply_collective, meshes_25d, n_dup_choices
from repro.tune.db import DB_SCHEMA
from repro.tune.tuner import Tuner, check_policy


class TestSignature:
    def test_key_is_canonical_and_roundtrips(self):
        sig = signature_for_ssc(4, 7645, ppn=6)
        assert sig.key.startswith("ssc:n7645:r64:m4x4x4:ppn6:block:")
        assert WorkloadSignature.from_dict(sig.as_dict()) == sig

    def test_fabric_hash_tracks_constants(self):
        base = fabric_hash(None, None)
        assert base == fabric_hash(NetworkParams(), MachineParams())
        perturbed = fabric_hash(NetworkParams(alpha=2e-6), None)
        assert perturbed != base
        # A changed fabric must produce a different signature key.
        assert (signature_for_ssc(2, 64).key
                != signature_for_ssc(2, 64, params=NetworkParams(alpha=2e-6)).key)

    def test_mesh_must_match_ranks(self):
        with pytest.raises(ValueError, match="does not match"):
            WorkloadSignature(kernel="ssc", n=64, ranks=9, mesh=(2, 2, 2),
                              ppn=1, placement="block", fabric="0" * 12)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            WorkloadSignature(kernel="cannon", n=64, ranks=8, mesh=(2, 2, 2),
                              ppn=1, placement="block", fabric="0" * 12)

    def test_ssc25d_signature_counts_ranks(self):
        sig = signature_for_ssc25d(4, 2, 512)
        assert sig.ranks == 32 and sig.mesh == (4, 4, 2)


class TestValidity:
    def test_ndup_needs_optimized_algorithm(self):
        with pytest.raises(ValueError, match="requires the optimized algorithm"):
            validate_ssc_config(2, 64, "baseline", 2, 1)

    def test_ndup_bounded_by_smallest_block(self):
        # n=4, p=2 -> 2x2 blocks of 4 elements; N_DUP=5 would make empty parts.
        with pytest.raises(ValueError, match="empty messages"):
            validate_ssc_config(2, 4, "optimized", 5, 1)
        validate_ssc_config(2, 4, "optimized", 4, 1)  # boundary is fine

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            validate_ssc_config(2, 64, "blocked", 1, 1)

    def test_25d_replication_must_divide_mesh_side(self):
        with pytest.raises(ValueError, match=r"c \| q"):
            validate_ssc25d_config(4, 3, 64, 1, 1)
        validate_ssc25d_config(4, 2, 64, 1, 1)

    def test_kernels_enforce_the_same_rules(self):
        with pytest.raises(ValueError, match="requires the optimized algorithm"):
            run_ssc(2, 16, "baseline", n_dup=2)
        with pytest.raises(ValueError, match="empty messages"):
            run_ssc(2, 4, "optimized", n_dup=5)
        with pytest.raises(ValueError, match=r"c \| q"):
            run_ssc25d(4, 3, 64)


class TestCandidates:
    def test_ndup_choices_are_parts_divisors(self):
        assert n_dup_choices() == (1, 2, 3, 4, 6, 8)
        assert n_dup_choices(cap=4) == (1, 2, 3, 4)

    def test_enumeration_is_sorted_valid_and_deduplicated(self):
        sig = signature_for_ssc(2, 256)
        cands = enumerate_candidates(sig)
        keys = [c.key for c in cands]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for cand in cands:
            cand.validate(sig.n)  # must not raise

    def test_enumeration_excludes_oversized_ndup(self):
        # n=4, p=2: blocks have 4 elements, so N_DUP 6 and 8 must be absent.
        cands = enumerate_candidates(signature_for_ssc(2, 4))
        assert {c.n_dup for c in cands} <= {1, 2, 3, 4}

    def test_25d_meshes_require_dividing_replication(self):
        assert meshes_25d(32) == ((4, 4, 2),)
        assert meshes_25d(64) == ((4, 4, 4), (8, 8, 1))
        cands = enumerate_candidates(signature_for_ssc25d(4, 2, 256))
        assert {c.mesh for c in cands} == {(4, 4, 2)}

    def test_paper_default_is_a_valid_candidate(self):
        for sig in (signature_for_ssc(2, 256), signature_for_ssc(4, 7645),
                    signature_for_ssc25d(4, 2, 512)):
            default = paper_default_candidate(sig)
            default.validate(sig.n)
            assert default.key in {c.key for c in enumerate_candidates(sig)}

    def test_paper_default_clamps_ndup_on_tiny_blocks(self):
        assert paper_default_candidate(signature_for_ssc(2, 2)).n_dup == 1

    def test_collective_override(self):
        params = NetworkParams()
        assert apply_collective(params, "auto") is params
        assert apply_collective(params, "binomial").long_message_threshold > 10**9
        assert apply_collective(params, "long").long_message_threshold == 0
        with pytest.raises(ValueError, match="unknown collective"):
            apply_collective(params, "ring")


class TestTuningDB:
    def _record(self, n: int, seed: int = 0) -> TuningRecord:
        sig = signature_for_ssc(2, n)
        cand = paper_default_candidate(sig)
        return TuningRecord(signature=sig, policy="auto", seed=seed,
                            best=cand, best_time=1.0, default=cand,
                            default_time=2.0)

    def test_insert_lookup_and_bound(self):
        db = TuningDB(max_records=2)
        for n in (64, 128, 256):
            db.insert(self._record(n))
        assert len(db) == 2
        assert db.lookup(signature_for_ssc(2, 64)) is None  # oldest evicted
        assert db.lookup(signature_for_ssc(2, 256)).best_time == 1.0

    def test_save_load_roundtrip_is_byte_stable(self, tmp_path):
        path = tmp_path / "tune.json"
        db = TuningDB(path=path)
        db.insert(self._record(128))
        db.insert(self._record(64))
        db.save()
        first = path.read_bytes()
        reloaded = TuningDB(path=path)
        assert reloaded.keys() == db.keys()
        reloaded.save()
        assert path.read_bytes() == first

    def test_schema_mismatch_refused(self, tmp_path):
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"schema": DB_SCHEMA + 1, "records": []}))
        with pytest.raises(ValueError, match="schema"):
            TuningDB(path=path)

    def test_get_unknown_key_names_the_knowns(self):
        db = TuningDB()
        db.insert(self._record(64))
        with pytest.raises(KeyError, match="known keys"):
            db.get("nope")


class TestSearchAndPolicies:
    def test_same_signature_and_seed_byte_identical(self):
        sig = signature_for_ssc(2, 256)
        a = Tuner(policy="auto", seed=3).tune(sig)
        b = Tuner(policy="auto", seed=3).tune(sig)
        assert a.to_bytes() == b.to_bytes()

    def test_warm_start_skips_the_simulator(self):
        db = TuningDB()
        sig = signature_for_ssc(2, 256)
        first = Tuner(db=db, policy="auto").tune(sig)
        warm = Tuner(db=db, policy="auto")
        assert warm.tune(sig) is first
        assert warm.simulations == 0

    def test_tuned_never_slower_than_default(self):
        rec = Tuner(policy="auto").tune(signature_for_ssc(2, 256))
        assert rec.best_time <= rec.default_time
        assert rec.speedup_vs_default >= 1.0

    def test_model_only_never_simulates(self):
        tuner = Tuner(policy="model-only")
        rec = tuner.tune(signature_for_ssc(2, 256))
        assert tuner.simulations == 0 and rec.simulations == 0
        assert all(e.status == "model-only" for e in rec.trace)

    def test_db_only_raises_without_a_record(self):
        with pytest.raises(KeyError, match="db-only"):
            Tuner(policy="db-only").tune(signature_for_ssc(2, 256))

    def test_db_only_serves_a_populated_db(self):
        db = TuningDB()
        sig = signature_for_ssc(2, 256)
        rec = Tuner(db=db, policy="auto").tune(sig)
        assert Tuner(db=db, policy="db-only").tune(sig) is rec

    def test_exhaustive_simulates_every_candidate(self):
        # Tiny workload: n=2, p=2 -> 1-element blocks, N_DUP=1 only.
        sig = signature_for_ssc(2, 2)
        tuner = Tuner(policy="exhaustive")
        rec = tuner.tune(sig)
        # Every candidate is scored; on 2-rank communicators every
        # collective is binomial, so the three overrides of each
        # configuration are one program, simulated once.
        assert (tuner.simulations, tuner.aliased) == (15, 30)
        assert (tuner.simulations + tuner.aliased
                == len(enumerate_candidates(sig)))
        assert all(e.status in ("simulated", "pruned-deadline")
                   for e in rec.trace)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown tuning policy"):
            check_policy("greedy")
        with pytest.raises(ValueError, match="unknown tuning policy"):
            Tuner(policy="greedy")

    def test_trace_statuses_and_default_presence(self):
        rec = Tuner(policy="auto").tune(signature_for_ssc(2, 256))
        assert rec.default.key in {e.candidate.key for e in rec.trace}
        simulated = [e for e in rec.trace if e.status == "simulated"]
        assert simulated and all(e.sim_time is not None for e in simulated)


class TestReplayBackend:
    """The shortlist-scoring replay knob (see repro.sim.replay)."""

    def _setup(self, params=None):
        sig = signature_for_ssc(2, 64, params=params)
        cands = enumerate_candidates(sig)
        return sig, cands, paper_default_candidate(sig)

    def test_replay_sweep_matches_full_simulation_bit_for_bit(self):
        from repro.tune.search import search

        base = NetworkParams()
        p1 = base.replace(alpha=base.alpha * 1.5)
        sig, cands, default = self._setup(params=base)
        cache: dict = {}
        first = search(sig, cands, default, params=base, replay="auto",
                       graph_cache=cache)
        assert first.simulations > 0 and first.replays == 0
        assert len(cache) == first.simulations  # every scored graph cached
        # Same workload under perturbed constants: the replay-backed search
        # must run zero simulations and score bit-identically to a full one.
        off = search(sig, cands, default, params=p1, replay="off")
        on = search(sig, cands, default, params=p1, replay="auto",
                    graph_cache=cache)
        assert on.simulations == 0
        assert on.replays == first.simulations
        assert on.best.candidate.key == off.best.candidate.key
        for a, b in zip(off.trace, on.trace):
            assert a.candidate.key == b.candidate.key
            assert a.sim_time == b.sim_time  # bit-for-bit
        assert any(e.status == "replayed" for e in on.trace)

    def test_replay_auto_without_cache_is_off(self):
        from repro.tune.search import search

        sig, cands, default = self._setup()
        out = search(sig, cands, default, replay="auto")
        assert out.replays == 0
        assert all(e.status != "replayed" for e in out.trace)

    def test_invalid_recording_falls_back_to_simulation(self):
        from repro.tune.search import search

        base = NetworkParams()
        sig, cands, default = self._setup(params=base)
        cache: dict = {}
        first = search(sig, cands, default, params=base, replay="auto",
                       graph_cache=cache)
        for rec in cache.values():
            rec.invalidate("poisoned by test")
        p1 = base.replace(alpha=base.alpha * 1.25)
        out = search(sig, cands, default, params=p1, replay="auto",
                     graph_cache=cache)
        # Every replay attempt refused -> full simulation, and the cache is
        # repopulated with fresh valid recordings.
        assert out.replays == 0
        assert out.simulations == first.simulations
        assert all(rec.valid for rec in cache.values())
        # ... and the outcome says why, per recorded candidate (aliased
        # entries reuse a twin's score and have no recording to refuse).
        assert (first.simulations, first.aliased) == (3, 2)
        assert set(out.refusals) == set(first.recorded)
        assert all(reason == "recording invalid: poisoned by test"
                   for reason in out.refusals.values())
        assert not first.refusals

    def test_tuner_counts_fallbacks_by_reason(self):
        base = NetworkParams()
        tuner = Tuner(replay="on")
        tuner.autotune_ssc(2, 64, params=base)
        for rec in tuner.graph_cache.values():
            rec.invalidate("poisoned by test")
        tuner.autotune_ssc(2, 64, params=base.replace(alpha=2 * base.alpha))
        assert tuner.replays == 0 and tuner.replay_aborts == 0
        assert tuner.replay_refusals == {
            "recording invalid: poisoned by test": len(tuner.graph_cache)}
        # A served re-tune adds nothing, and leaves no fold behind.
        tuner.autotune_ssc(2, 64, params=base.replace(alpha=3 * base.alpha))
        assert tuner.replays == len(tuner.graph_cache)
        assert sum(tuner.replay_refusals.values()) == len(tuner.graph_cache)
        assert all(rec._plan is None for rec in tuner.graph_cache.values())

    def test_unknown_replay_mode_rejected(self):
        from repro.tune.search import search

        sig, cands, default = self._setup()
        with pytest.raises(ValueError, match="replay"):
            search(sig, cands, default, replay="maybe")

    def test_tuner_owns_cache_across_fabric_settings(self):
        base = NetworkParams()
        p1 = base.replace(nic_bandwidth=base.nic_bandwidth * 0.8)
        tuner = Tuner(replay="on")
        tuner.autotune_ssc(2, 64, params=base)
        sims_after_first = tuner.simulations
        assert sims_after_first > 0 and tuner.replays == 0
        # Different fabric constants -> different signature key -> a fresh
        # search, served from the recorded graphs.
        tuner.autotune_ssc(2, 64, params=p1)
        assert tuner.replays > 0
        assert tuner.simulations == sims_after_first

    def test_deadline_on_first_candidate_keeps_default_as_incumbent(self,
                                                                    monkeypatch):
        """Regression: a DeadlineExceeded on the deadline-free default used
        to silently drop it, leaving the search without an incumbent."""
        import repro.tune.search as search_mod

        def always_exceeds(*_a, **_kw):
            raise DeadlineExceeded("injected by test")

        monkeypatch.setattr(search_mod, "simulate_candidate", always_exceeds)
        sig, cands, default = self._setup()
        out = search_mod.search(sig, cands, default)
        assert out.best is not None
        assert out.best.candidate.key == default.key
        assert out.best.status == "deadline-analytic"
        assert out.best.sim_time == out.best.model_time
        # Later shortlist entries were pruned, not promoted.
        assert all(e.status in ("deadline-analytic", "pruned-deadline",
                                "pruned-model") for e in out.trace)


class TestScheduleAliasing:
    """Shortlist entries that run one program are simulated once."""

    #: (kernel, shape args, n): 2-, 3- and 4-rank communicators, where the
    #: three collective overrides name one, two or three schedules.
    GRID = (("ssc", (2,), 64), ("ssc", (3,), 1536), ("ssc", (4,), 1536),
            ("ssc25d", (2, 2), 1536), ("ssc25d", (3, 3), 999),
            ("summa", (4,), 512))

    @pytest.mark.parametrize("replay", ["off", "on"])
    def test_aliased_entries_score_as_their_own_simulation(self, replay,
                                                           monkeypatch):
        """Every aliased entry, simulated on its own under the deadline it
        was scored under, gives the reused ``(kernel_time, world_time)``
        bit for bit (or is pruned when the reused status says so).  Each
        search is also seeded with all three overrides of the two
        model-best configurations, so schedules that differ (``binomial``
        vs ``auto`` at p=4, n=1536) meet in one shortlist."""
        from dataclasses import replace

        import repro.tune.search as search_mod
        from repro.kernels import KERNELS
        from repro.tune import simulate_candidate
        from repro.tune.signature import signature_for

        scored = []          # (candidate, deadline, reused) per entry
        schedule_key, reuse = search_mod.schedule_key, search_mod._reuse

        def keyed(sig, cand, params=None):
            scored.append([cand])
            return schedule_key(sig, cand, params)

        def reused(prior, deadline):
            out = reuse(prior, deadline)
            scored[-1] += [deadline, out]
            return out

        monkeypatch.setattr(search_mod, "schedule_key", keyed)
        monkeypatch.setattr(search_mod, "_reuse", reused)
        base = NetworkParams()
        aliased = 0
        for kernel, shape, n in self.GRID:
            sig = signature_for(kernel, KERNELS[kernel].mesh_shape(*shape), n)
            cands = enumerate_candidates(sig)
            default = paper_default_candidate(sig)
            top = sorted(cands, key=lambda c: (search_mod.model_time(sig, c),
                                               c.key))
            configs = [default] + [c for c in top if c != default][:1]
            seeds = [c for cfg in configs for c in cands
                     if c == replace(cfg, collective=c.collective)]
            searches = [(base, None), (base, seeds)]
            if replay == "on":   # re-scored through the recorded graphs
                searches.append((base.replace(alpha=1.5 * base.alpha), seeds))
            cache: dict = {}
            for params, seed in searches:
                del scored[:]
                out = search_mod.search(
                    sig, cands, default, params=params, replay=replay,
                    graph_cache=cache, seed_shortlist=seed,
                    shortlist=len(seeds) + 1 if seed else 4)
                # The hook saw every shortlist entry, in scoring order.
                assert sum(r is not None for _c, _d, r in scored) \
                    == out.aliased
                aliased += out.aliased
                for cand, deadline, hit in scored:
                    if hit is None:
                        continue
                    try:
                        got = simulate_candidate(sig, cand, params,
                                                 deadline=deadline)
                    except DeadlineExceeded:
                        got = "pruned-deadline"
                    status, kernel_time, world_time = hit
                    want = (status if status == "pruned-deadline" else
                            (kernel_time.hex(), world_time.hex()))
                    if got != "pruned-deadline":
                        got = tuple(t.hex() for t in got)
                    assert got == want, (sig.key, cand.key, deadline)
        assert aliased >= 2 * len(self.GRID)


class TestKernelIntegration:
    def test_run_ssc_tune_attaches_record(self):
        db = TuningDB()
        res = run_ssc(2, 256, tune="auto", tune_db=db)
        assert res.tuning is not None
        assert res.tuning.best_time <= res.tuning.default_time
        assert db.lookup(res.tuning.signature) is res.tuning

    def test_run_ssc_tune_reproducible(self):
        t1 = run_ssc(2, 256, tune="auto").tuning
        t2 = run_ssc(2, 256, tune="auto").tuning
        assert t1.to_bytes() == t2.to_bytes()

    def test_run_ssc25d_tune_attaches_record(self):
        res = run_ssc25d(4, 2, 256, tune="auto")
        assert res.tuning is not None
        assert res.tuning.best.kernel == "ssc25d"
        assert res.tuning.best_time <= res.tuning.default_time

    def test_deadline_raises_when_too_tight(self):
        with pytest.raises(DeadlineExceeded, match="exceeded deadline"):
            run_ssc(2, 256, deadline=1e-9)

    def test_generous_deadline_is_harmless(self):
        bounded = run_ssc(2, 64, deadline=1e6)
        free = run_ssc(2, 64)
        assert bounded.times == free.times


class TestCLI:
    def test_search_show_export(self, tmp_path, capsys):
        from repro.tune.cli import main

        db = tmp_path / "db.json"
        assert main(["search", "ssc", "--p", "2", "--n", "64",
                     "--db", str(db)]) == 0
        assert main(["show", "--db", str(db)]) == 0
        out = tmp_path / "copy.json"
        assert main(["export", "--db", str(db), "--output", str(out)]) == 0
        assert out.read_bytes() == db.read_bytes()
        text = capsys.readouterr().out
        assert "best" in text and "exported 1 record(s)" in text

    def test_replay_lines_name_each_fallback_reason(self):
        from repro.tune.cli import _replay_lines

        line = _replay_lines(3, 1, {"b reason": 2, "a reason": 1})
        assert line.splitlines() == [
            "replays: 3 (1 cut short by the deadline)  replay fallbacks: 3",
            "  fell back x1: a reason",
            "  fell back x2: b reason",
        ]

    def test_search_requires_mesh_args(self, capsys):
        from repro.tune.cli import main

        assert main(["search", "ssc", "--n", "64"]) == 2
        assert main(["search", "ssc25d", "--n", "64"]) == 2
