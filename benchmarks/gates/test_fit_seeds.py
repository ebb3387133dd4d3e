"""The calibration fit recovers the injected constants on every seed.

``tune_replay``'s ``fit.paper`` op fits alpha and nic_bandwidth to p=2 and
p=3, n=5330, N_DUP=1 recordings "measured" under constants drawn from the
seed.  This sweeps the op's first 200 seeds with the workload's own draw.
Each measurement is the replay at the true constants, which replay's
contract makes bit-equal to simulating them; three seeds check that by
simulation.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.analytics import CalibrationObservation, fit_fabric_constants
from repro.kernels import run_ssc
from repro.netmodel import NetworkParams
from repro.sim.replay import replay_kernel_grid

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perf"))
from perfbench.workloads.tune_replay import fixtures  # noqa: E402

N = 5330
MESHES = (2, 3)


@pytest.fixture(scope="module")
def recordings():
    return {p: run_ssc(p, N, "optimized", n_dup=1, record=True).recording
            for p in MESHES}


def _truth(seed):
    base = NetworkParams()
    factors = fixtures(seed, False, None)["fit_factors"]
    return base, {f: getattr(base, f) * k for f, k in factors.items()}


@pytest.mark.parametrize("seed", [1, 33, 110])
def test_replayed_measurement_equals_simulation(recordings, seed):
    base, truth = _truth(seed)
    for p in MESHES:
        sim = run_ssc(p, N, "optimized", n_dup=1,
                      params=base.replace(**truth)).elapsed
        assert replay_kernel_grid(recordings[p], [truth]) == [sim], (seed, p)


@pytest.mark.parametrize("seed", range(1, 201))
def test_fit_recovers_injected_constants(recordings, seed):
    base, truth = _truth(seed)
    obs = [CalibrationObservation(recordings[p],
                                  replay_kernel_grid(recordings[p], [truth])[0])
           for p in MESHES]
    fit = fit_fabric_constants(obs, tuple(truth), base=base, tolerance=1e-9)
    err = max(abs(fit.fitted[f] / truth[f] - 1.0) for f in truth)
    assert err <= 1e-6, (seed, err, fit.to_jsonable())
