"""Tests for replay-backed calibration and the drift gate (repro.analytics)."""

import pytest

from repro.analytics.calibrate import (
    DRIFT_CASES,
    CalibrationObservation,
    build_synthetic_observations,
    calibrate_synthetic,
    fit_fabric_constants,
    model_drift,
)
from repro.netmodel.params import NetworkParams
from repro.sim.replay import ReplayInvalid, replay_kernel_grid


class TestFitValidation:
    def _one_obs(self):
        base = NetworkParams()
        truth = base.replace(alpha=base.alpha * 1.5)
        return build_synthetic_observations(base, truth, workloads=((2, 48),))

    def test_rejects_unsafe_fields(self):
        with pytest.raises(ValueError, match="non-replay-safe"):
            fit_fabric_constants(self._one_obs(), ("alpha", "send_overhead"))

    def test_rejects_empty_fields(self):
        with pytest.raises(ValueError, match="no fields"):
            fit_fabric_constants(self._one_obs(), ())

    def test_rejects_underdetermined(self):
        with pytest.raises(ValueError, match="underdetermined"):
            fit_fabric_constants(self._one_obs(), ("alpha", "nic_bandwidth"))

    def test_rejects_nonpositive_measurement(self):
        obs = self._one_obs()
        obs[0] = CalibrationObservation(obs[0].recording, 0.0, obs[0].label)
        with pytest.raises(ValueError, match="positive"):
            fit_fabric_constants(obs, ("alpha",))


class TestReplayGrid:
    def test_rejects_unsafe_overrides_before_running(self):
        base = NetworkParams()
        obs = build_synthetic_observations(
            base, base.replace(alpha=base.alpha * 1.5), workloads=((2, 48),)
        )
        with pytest.raises(ReplayInvalid, match="send_overhead"):
            replay_kernel_grid(obs[0].recording,
                               [{"alpha": 1e-6},
                                {"send_overhead": 1e-6}])

    def test_grid_matches_pointwise_replay(self):
        from repro.sim.replay import replay_kernel

        base = NetworkParams()
        obs = build_synthetic_observations(
            base, base.replace(alpha=base.alpha * 1.5), workloads=((2, 48),)
        )
        overrides = [{"alpha": base.alpha * f} for f in (0.5, 1.0, 2.0)]
        grid = replay_kernel_grid(obs[0].recording, overrides)
        for ov, got in zip(overrides, grid):
            want, _ = replay_kernel(obs[0].recording,
                                    params=base.replace(**ov))
            assert got == want


class TestSyntheticRecovery:
    def test_recovers_injected_constants_within_tolerance(self):
        """The PR's committed gate: <= 5% recovery error, zero extra sims."""
        result = calibrate_synthetic()
        assert result["max_recovery_rel_error"] <= 0.05
        # In practice Gauss-Newton lands at ~1e-9; guard against silent
        # degradation to barely-passing while keeping headroom for noise.
        assert result["max_recovery_rel_error"] <= 1e-6
        assert result["fit"]["converged"]
        assert result["sim_runs"] == 4  # 2 workloads x (record + measure)
        assert result["fit"]["replays"] > 50  # the dense sweep ran

    def test_fit_performs_zero_simulator_runs(self, monkeypatch):
        """Once observations exist, fitting must never build a World."""
        base = NetworkParams()
        truth = base.replace(alpha=base.alpha * 1.8,
                             nic_bandwidth=base.nic_bandwidth * 0.7)
        observations = build_synthetic_observations(base, truth)

        import repro.mpi.world as world_mod

        def boom(*a, **kw):
            raise AssertionError("fit launched a simulation")

        monkeypatch.setattr(world_mod.World, "__init__", boom)
        fit = fit_fabric_constants(observations,
                                   ("alpha", "nic_bandwidth"), base=base)
        for f in ("alpha", "nic_bandwidth"):
            assert abs(fit.fitted[f] / getattr(truth, f) - 1.0) <= 0.05

    def test_restarts_off_a_plateau(self):
        """At nic_bandwidth x0.79 the grid's best cell sits where another
        limit binds and the predictions are flat in nic_bandwidth: the
        Jacobian column is exactly zero and Gauss-Newton alone walks alpha
        ~50x off.  The restart from the off-plateau side recovers both."""
        from repro.kernels.symmsquarecube import run_ssc

        base = NetworkParams()
        truth = base.replace(alpha=base.alpha * 1.7915761064069748,
                             nic_bandwidth=base.nic_bandwidth
                             * 0.7907829360229865)
        observations = []
        for p in (2, 3):
            rec = run_ssc(p, 5330, "optimized", n_dup=1,
                          record=True).recording
            measured = run_ssc(p, 5330, "optimized", n_dup=1,
                               params=truth).elapsed
            observations.append(CalibrationObservation(rec, measured))
        fit = fit_fabric_constants(observations, ("alpha", "nic_bandwidth"),
                                   base=base, tolerance=1e-9)
        assert fit.converged
        for f in ("alpha", "nic_bandwidth"):
            assert abs(fit.fitted[f] / getattr(truth, f) - 1.0) <= 1e-6

    def test_result_is_jsonable(self):
        import json

        result = calibrate_synthetic()
        assert json.loads(json.dumps(result)) == result

    def test_rejects_perturbing_unfitted_field(self):
        with pytest.raises(ValueError, match="not being fitted"):
            calibrate_synthetic(fields=("alpha",),
                                factors={"nic_bandwidth": 0.5})


class TestDriftGate:
    def test_pinned_cases_within_bands(self):
        rows = model_drift()
        assert [r["name"] for r in rows] == [c.name for c in DRIFT_CASES]
        for r in rows:
            assert r["ok"], (
                f"{r['name']}: drift {r['drift']:+.3f} outside band "
                f"{r['band']}"
            )
            assert r["simulated"] > 0.0 and r["analytic"] > 0.0

    def test_gate_detects_broken_model(self):
        # Same workloads under absurd constants: the gate must trip.
        rows = model_drift(params=NetworkParams().replace(
            nic_bandwidth=1e12))
        assert not all(r["ok"] for r in rows)
