"""Correctness tests for SymmSquareCube (Algorithms 3, 4, 5) vs numpy."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.kernels import run_ssc, ssc_flops
from repro.kernels.symmsquarecube import check_symmetric
from repro.tune.validity import min_block_elems

from tests.conftest import symmetric


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("alg", ["original", "baseline", "optimized"])
    def test_all_algorithms_match_numpy(self, rng, p, alg):
        n = 31
        d = symmetric(rng, n)
        out = run_ssc(p, n, alg, d)
        assert np.allclose(out.d2, d @ d), f"{alg} p={p}: D^2 wrong"
        assert np.allclose(out.d3, d @ d @ d), f"{alg} p={p}: D^3 wrong"

    @pytest.mark.parametrize("n_dup", [1, 2, 3, 4, 6])
    def test_optimized_all_ndup(self, rng, n_dup):
        n, p = 43, 2
        d = symmetric(rng, n)
        out = run_ssc(p, n, "optimized", d, n_dup=n_dup)
        assert np.allclose(out.d2, d @ d)
        assert np.allclose(out.d3, d @ d @ d)

    def test_algorithms_agree_bitwise_shapewise(self, rng):
        n, p = 24, 2
        d = symmetric(rng, n)
        outs = [run_ssc(p, n, alg, d, n_dup=(4 if alg == "optimized" else 1))
                for alg in ("original", "baseline", "optimized")]
        for a, b in zip(outs, outs[1:]):
            assert np.allclose(a.d2, b.d2)
            assert np.allclose(a.d3, b.d3)

    def test_multiple_iterations_same_result(self, rng):
        n = 20
        d = symmetric(rng, n)
        out = run_ssc(2, n, "optimized", d, n_dup=2, iterations=3)
        assert len(out.times) == 3
        assert np.allclose(out.d2, d @ d)

    def test_non_divisible_dimension(self, rng):
        # n % p != 0: unequal blocks on the mesh.
        n, p = 29, 3
        d = symmetric(rng, n)
        out = run_ssc(p, n, "baseline", d)
        assert np.allclose(out.d2, d @ d)
        assert np.allclose(out.d3, d @ d @ d)

    def test_ppn_does_not_change_results(self, rng):
        n, p = 25, 2
        d = symmetric(rng, n)
        out1 = run_ssc(p, n, "optimized", d, n_dup=2, ppn=1)
        out4 = run_ssc(p, n, "optimized", d, n_dup=2, ppn=4)
        assert np.allclose(out1.d2, out4.d2)
        assert np.allclose(out1.d3, out4.d3)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(4, 40), p=st.integers(1, 3),
           nd=st.integers(1, 4), seed=st.integers(0, 2**31))
    def test_property_random_symmetric(self, n, p, nd, seed):
        # Only generate configurations the shared validity rules admit:
        # N_DUP may not exceed the smallest communicated block (e.g. n=4,
        # p=3 leaves 1-element blocks, so nd>=2 is rejected by run_ssc).
        assume(nd <= min_block_elems(n, p))
        rng = np.random.default_rng(seed)
        d = symmetric(rng, n)
        out = run_ssc(p, n, "optimized", d, n_dup=nd)
        assert np.allclose(out.d2, d @ d)
        assert np.allclose(out.d3, d @ d @ d)


class TestValidation:
    def test_asymmetric_rejected(self, rng):
        d = rng.standard_normal((10, 10))
        with pytest.raises(ValueError, match="symmetric"):
            run_ssc(2, 10, "baseline", d)

    def test_symmetry_check_exact_and_tolerant_branches(self, rng, monkeypatch):
        d = symmetric(rng, 12)
        calls = []
        real_allclose = np.allclose

        def counting_allclose(*args, **kwargs):
            calls.append(1)
            return real_allclose(*args, **kwargs)

        monkeypatch.setattr(np, "allclose", counting_allclose)
        check_symmetric(d)  # exactly symmetric: the tolerance test is skipped
        assert calls == []
        nearly = d.copy()
        nearly[0, 1] += 1e-12  # symmetric within tolerance, not exactly
        check_symmetric(nearly)
        assert calls == [1]
        nearly[0, 1] = np.nan  # a NaN compares unequal on both branches
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(nearly)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_ssc(2, 10, "fancy")

    def test_ndup_requires_optimized(self):
        with pytest.raises(ValueError):
            run_ssc(2, 10, "baseline", n_dup=4)

    def test_flops_metric(self):
        assert ssc_flops(100) == 4e6
        out = run_ssc(2, 1000, "baseline", iterations=2)
        assert out.tflops == pytest.approx(
            ssc_flops(1000) / out.elapsed / 1e12
        )


class TestTimingShape:
    """The paper's performance ordering at full scale (modeled mode)."""

    def test_baseline_beats_original(self):
        n = 7645
        t_orig = run_ssc(4, n, "original").elapsed
        t_base = run_ssc(4, n, "baseline").elapsed
        assert t_base <= t_orig

    def test_overlap_beats_baseline_at_scale(self):
        n = 7645
        t_base = run_ssc(4, n, "baseline").elapsed
        t_opt = run_ssc(4, n, "optimized", n_dup=4).elapsed
        assert t_opt < 0.92 * t_base  # paper: ~15-20% faster

    def test_ndup_monotone_until_plateau(self):
        n = 7645
        times = {nd: run_ssc(4, n, "optimized", n_dup=nd).elapsed
                 for nd in (1, 2, 4)}
        assert times[2] < times[1]
        assert times[4] <= times[2]

    def test_multiple_ppn_helps(self):
        n = 7645
        t1 = run_ssc(4, n, "optimized", n_dup=1, ppn=1).elapsed
        t4 = run_ssc(6, n, "optimized", n_dup=1, ppn=4).elapsed
        # Different mesh sizes: compare through the paper's TFlops metric.
        tf1 = ssc_flops(n) / t1
        tf4 = ssc_flops(n) / t4
        assert tf4 > 1.1 * tf1
