"""The pipelined-multicast SUMMA family: variants, tuning and RA308.

Covers the three variants' numerical equivalence, the kernel-declared
validity rules, the static-verification contract (plan populations and
channel claims, including the RA308 checker both directions), the tune
axes (``depth`` candidate field, summa signature/enumeration) and the
headline property the bench gates: pipelined multicast beats plain SUMMA
on a bandwidth-bound mesh.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.schedule import check_plans, verify_channel_claims
from repro.dense import run_summa, summa_channel_claims, summa_plan_population
from repro.netmodel.params import NetworkParams
from repro.tune import (
    Candidate,
    Tuner,
    enumerate_candidates,
    paper_default_candidate,
    signature_for_summa,
    validate_summa_config,
)

VARIANTS = (("plain", 1, 1), ("streaming", 1, 2), ("streaming", 1, 4),
            ("colored", 2, 2), ("colored", 4, 4))


class TestVariantCorrectness:
    def test_all_variants_match_numpy(self):
        rng = np.random.default_rng(7)
        p, n = 2, 12
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        for algorithm, colors, depth in VARIANTS:
            if colors > p or (algorithm != "plain" and depth > p):
                continue
            res = run_summa(p, n, a, b, algorithm=algorithm, colors=colors,
                            depth=depth)
            assert np.allclose(res.c, a @ b), (algorithm, colors, depth)
            assert res.elapsed > 0.0

    def test_modeled_mode_reports_positive_elapsed(self):
        for algorithm, colors, depth in VARIANTS:
            res = run_summa(4, 256, algorithm=algorithm, colors=colors,
                            depth=depth)
            assert res.c is None
            assert res.elapsed > 0.0
            assert (res.algorithm, res.colors, res.depth) == (
                algorithm, colors, depth)

    def test_variants_are_deterministic(self):
        t1 = run_summa(4, 512, algorithm="colored", colors=4, depth=4).elapsed
        t2 = run_summa(4, 512, algorithm="colored", colors=4, depth=4).elapsed
        assert t1 == t2


class TestValidityRules:
    def test_accepts_every_swept_variant(self):
        for algorithm, colors, depth in VARIANTS:
            validate_summa_config(4, 256, algorithm, colors, depth, 1)

    @pytest.mark.parametrize("kwargs", [
        dict(algorithm="nope", colors=1, depth=1),
        dict(algorithm="plain", colors=2, depth=1),   # plain is colorless
        dict(algorithm="plain", colors=1, depth=2),   # plain has no window
        dict(algorithm="streaming", colors=2, depth=2),
        dict(algorithm="colored", colors=3, depth=2),  # colors in {2, 4}
        dict(algorithm="colored", colors=4, depth=1),  # needs a window
        dict(algorithm="colored", colors=4, depth=2, p=2),  # colors > p
        dict(algorithm="streaming", colors=1, depth=9),     # depth > p
    ])
    def test_rejects_invalid_configs(self, kwargs):
        p = kwargs.pop("p", 4)
        with pytest.raises(ValueError):
            validate_summa_config(p, 256, kwargs["algorithm"],
                                  kwargs["colors"], kwargs["depth"], 1)

    def test_run_summa_enforces_the_rules(self):
        with pytest.raises(ValueError):
            run_summa(2, 8, algorithm="colored", colors=4, depth=2)


class TestStaticContract:
    def test_plan_population_is_variant_invariant(self):
        plain = summa_plan_population(4, 64, algorithm="plain")
        for algorithm, colors, depth in VARIANTS[1:]:
            assert summa_plan_population(4, 64, algorithm=algorithm,
                                         colors=colors, depth=depth) == plain
        for verb, size, root, n_elems, itemsize in plain:
            assert verb == "bcast" and size == 4 and 0 <= root < 4
            assert n_elems > 0 and itemsize == 8

    def test_channel_claims(self):
        assert summa_channel_claims(4, algorithm="plain") == [(0, 0)]
        assert summa_channel_claims(4, algorithm="streaming", depth=4) == [
            (0, 0)]
        assert summa_channel_claims(4, algorithm="colored", colors=4,
                                    depth=4) == [(0, 0), (1, 1), (2, 2),
                                                 (3, 3)]

    def test_ra308_flags_out_of_range_channel(self):
        findings = verify_channel_claims([(0, 0), (1, 3)], 2, "t")
        assert [f.check for f in findings] == ["RA308"]
        assert "outside" in findings[0].message

    def test_ra308_flags_colliding_colors(self):
        findings = verify_channel_claims([(0, 1), (1, 1)], 4, "t")
        assert [f.check for f in findings] == ["RA308"]
        assert "both claim channel 1" in findings[0].message

    def test_ra308_accepts_valid_and_idempotent_claims(self):
        assert verify_channel_claims([(0, 0), (1, 1), (0, 0)], 2, "t") == []

    def test_check_plans_walks_summa_channel_claims(self):
        report = check_plans([signature_for_summa(4, 256)])
        assert report.channel_checks > 0
        assert report.plan_sets > 0
        assert [f for f in report.findings if f.severity == "error"] == []


class TestTuneAxes:
    def test_candidate_depth_round_trips_and_keys(self):
        c = Candidate(kernel="summa", algorithm="streaming", mesh=(4, 4, 1),
                      n_dup=1, ppn=1, depth=4)
        assert c.key.endswith(":t4")
        assert Candidate.from_dict(c.as_dict()) == c
        d1 = Candidate(kernel="summa", algorithm="plain", mesh=(4, 4, 1),
                       n_dup=1, ppn=1)
        # depth=1 stays out of key and dict: pre-depth db bytes unchanged.
        assert ":t" not in d1.key
        assert "depth" not in d1.as_dict()
        assert Candidate.from_dict(d1.as_dict()).depth == 1

    def test_enumeration_spans_the_family_and_validates(self):
        sig = signature_for_summa(4, 1024)
        cands = enumerate_candidates(sig)
        algos = {(c.algorithm, c.n_dup, c.depth) for c in cands}
        assert ("plain", 1, 1) in algos
        assert any(a == "streaming" and d > 1 for a, _nd, d in algos)
        assert any(a == "colored" and nd in (2, 4) for a, nd, _d in algos)
        for c in cands:
            c.validate(sig.n)
        assert paper_default_candidate(sig).algorithm == "plain"

    def test_autotuner_finds_non_default_winner(self):
        decision = Tuner().autotune_summa(4, 2048)
        assert decision.best.key != decision.default.key
        assert decision.best_time < decision.default_time
        assert decision.best.algorithm in ("streaming", "colored")

    def test_run_summa_tune_applies_the_decision(self):
        res = run_summa(4, 2048, tune="auto")
        assert res.tuning is not None
        assert res.algorithm == res.tuning.best.algorithm
        assert res.elapsed <= res.tuning.default_time


class TestHeadlineSpeedup:
    def test_colored4_beats_plain_by_committed_margin(self):
        # Virtual times on the bandwidth-bound p=4, n=2048 mesh, bit for bit.
        plain = run_summa(4, 2048, algorithm="plain").elapsed
        streaming = run_summa(4, 2048, algorithm="streaming",
                              depth=4).elapsed
        colored = run_summa(4, 2048, algorithm="colored", colors=4,
                            depth=4).elapsed
        assert float.hex(plain) == "0x1.b9bd5f011fe33p-8"
        assert float.hex(streaming) == "0x1.56936ad49c448p-9"
        assert float.hex(colored) == "0x1.bc95da5939acap-9"
        assert plain / colored >= 1.5

    def test_colored_splits_traffic_across_lanes(self):
        res = run_summa(4, 512, algorithm="colored", colors=4, depth=4,
                        params=NetworkParams(num_channels=4))
        stats = res.world.fabric.snapshot_stats()
        msgs = stats["channel_messages"]
        assert all(m > 0 for m in msgs[:4])
