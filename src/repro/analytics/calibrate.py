"""Model calibration: fit ``NetworkParams`` constants to measured timelines.

Calibration closes the loop between the discrete-event simulator and the
closed-form alpha-beta models (:mod:`repro.netmodel.analytic`):

**Replay-based constant fitting** (:func:`fit_fabric_constants`)
    Given recorded runs (PR 6 event graphs) and their measured elapsed
    times, recover the fabric constants that explain the measurements —
    *without a single extra simulator run*.  Replay re-prices a recorded
    event graph under candidate constants in microseconds, so the fit can
    afford a dense alpha-beta sweep for initialization and a Gauss-Newton
    polish for the final digits; every prediction is a
    :func:`~repro.sim.replay.replay_kernel_grid` call, never a new
    simulation.

    The replayed prediction is a max-plus composition of edge weights that
    are affine in ``alpha`` and ``1/bandwidth``, so each observation's
    predicted time is piecewise-affine and monotone in every constant.
    That structure is why the two-stage fit converges: the dense grid
    cannot be fooled by local minima farther than one grid step from the
    valley, and Gauss-Newton inside the (locally affine) active piece
    reaches machine precision in a handful of iterations.  A plain greedy
    zoom on the grid alone stalls: wrong-but-compensating (alpha,
    bandwidth) pairs form a long correlated valley whose discretized
    minimum can sit far from the true constants.

**Synthetic recovery** (:func:`calibrate_synthetic`)
    The self-test: record workloads under the default constants, "measure"
    them under perturbed constants, then fit.  Replay equivalence makes
    the residual at the true constants exactly zero, so recovery error is
    purely an optimizer property — the CI gate pins it below 5 %%
    (in practice it converges to ~1e-9 relative).

**Analytic drift gate** (:func:`model_drift`)
    Compares the closed-form estimates (tuner stage-1 ranking models)
    against full simulations of the quick table-1/table-6 workloads and
    fails when the relative drift leaves a pinned per-workload band.  The
    bands are deliberately loose for models that are *known* coarse (plain
    blocking SUMMA underestimates round-gap serialization) and tight where
    the model should track (pipelined variants): the gate catches model or
    simulator regressions, not modeling error we already accepted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.netmodel.params import NetworkParams
from repro.sim.replay import REPLAY_SAFE_FIELDS, replay_kernel_grid

__all__ = [
    "CalibrationObservation",
    "DriftCase",
    "DRIFT_CASES",
    "FitResult",
    "calibrate_synthetic",
    "fit_fabric_constants",
    "model_drift",
]


@dataclass
class CalibrationObservation:
    """One (recorded run, measured elapsed seconds) pair.

    ``recording`` is the event graph captured with ``record=True`` — its
    structure (message sizes, dependencies, protocol choices) is what the
    fit re-prices; ``measured`` is the elapsed time the fitted constants
    must reproduce.  In the synthetic loop the measurement comes from a
    simulation under injected constants; against hardware it would be a
    wall-clock measurement of the same workload.
    """

    recording: object
    measured: float
    label: str = ""


@dataclass
class FitResult:
    """Outcome of :func:`fit_fabric_constants`."""

    fitted: dict = field(default_factory=dict)    #: field -> fitted value
    start: dict = field(default_factory=dict)     #: field -> starting value
    residuals: dict = field(default_factory=dict)  #: label -> final rel resid
    start_residuals: dict = field(default_factory=dict)
    grid_best: dict = field(default_factory=dict)  #: dense-sweep incumbent
    replays: int = 0          #: total replay evaluations (never simulations)
    iterations: int = 0       #: Gauss-Newton iterations used
    converged: bool = False   #: max |residual| below tolerance

    @property
    def max_residual(self) -> float:
        return max((abs(v) for v in self.residuals.values()), default=0.0)

    def to_jsonable(self) -> dict:
        return {
            "fitted": dict(self.fitted),
            "start": dict(self.start),
            "residuals": dict(self.residuals),
            "start_residuals": dict(self.start_residuals),
            "grid_best": dict(self.grid_best),
            "max_residual": self.max_residual,
            "replays": self.replays,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _solve_normal_equations(J: list[list[float]], r: list[float]) -> list[float]:
    """Gauss-Newton step: solve ``(J^T J) dx = -J^T r`` by elimination.

    The systems here are tiny (one row/column per fitted constant), so a
    dependency-free dense solve with a small Tikhonov floor is plenty.
    """
    m = len(J[0])
    a = [[sum(row[i] * row[j] for row in J) for j in range(m)] for i in range(m)]
    g = [-sum(row[i] * ri for row, ri in zip(J, r)) for i in range(m)]
    damp = 1e-12 * max(max(abs(v) for v in row) for row in a)
    for i in range(m):
        a[i][i] += damp
    for i in range(m):
        piv = a[i][i]
        if piv == 0.0:
            raise ZeroDivisionError("singular Gauss-Newton system")
        for k in range(i + 1, m):
            f = a[k][i] / piv
            for j in range(i, m):
                a[k][j] -= f * a[i][j]
            g[k] -= f * g[i]
    dx = [0.0] * m
    for i in range(m - 1, -1, -1):
        s = g[i] - sum(a[i][j] * dx[j] for j in range(i + 1, m))
        dx[i] = s / a[i][i]
    return dx


def fit_fabric_constants(
    observations: list[CalibrationObservation],
    fields: tuple[str, ...] = ("alpha", "nic_bandwidth"),
    *,
    base: NetworkParams | None = None,
    grid_points: int = 9,
    grid_span: float = 4.0,
    max_iterations: int = 12,
    tolerance: float = 1e-6,
    fd_step: float = 1e-4,
    machine=None,
) -> FitResult:
    """Fit ``fields`` of :class:`NetworkParams` to the observations.

    Stage 1 re-prices every observation over a dense log-spaced
    ``grid_points``-per-axis sweep spanning ``[value/grid_span,
    value*grid_span]`` around the ``base`` constants and keeps the
    least-squares incumbent.  Stage 2 polishes with Gauss-Newton in log
    space (finite-difference Jacobians, each column one replay per
    observation) until the largest relative residual drops below
    ``tolerance`` or ``max_iterations`` is exhausted.  All predictions go
    through :func:`~repro.sim.replay.replay_kernel_grid`; the fit never
    launches a simulation.

    Raises :class:`ValueError` for unknown/unsafe fields or for an
    underdetermined problem (fewer observations than fitted constants).
    """
    bad = [f for f in fields if f not in REPLAY_SAFE_FIELDS]
    if bad:
        raise ValueError(
            f"cannot fit non-replay-safe fields {bad}; replayable fields "
            f"are {sorted(REPLAY_SAFE_FIELDS)}"
        )
    if not fields:
        raise ValueError("no fields to fit")
    if len(observations) < len(fields):
        raise ValueError(
            f"underdetermined fit: {len(observations)} observation(s) for "
            f"{len(fields)} constants"
        )
    if any(obs.measured <= 0.0 for obs in observations):
        raise ValueError("measured elapsed times must be positive")
    base = base or NetworkParams()

    result = FitResult(start={f: getattr(base, f) for f in fields})
    labels = [obs.label or f"obs{idx}" for idx, obs in enumerate(observations)]

    def predict(points: list[dict]) -> list[list[float]]:
        """``out[obs_index][point_index]`` predicted elapsed seconds."""
        out = []
        for obs in observations:
            out.append(
                replay_kernel_grid(obs.recording, points, machine=machine)
            )
            result.replays += len(points)
        return out

    def residuals_at(preds_col: list[float]) -> list[float]:
        return [
            (pred - obs.measured) / obs.measured
            for pred, obs in zip(preds_col, observations)
        ]

    # -- stage 1: dense alpha-beta sweep ---------------------------------
    span = math.log(grid_span)
    axes = [
        [
            getattr(base, f) * math.exp(span * (2.0 * i / (grid_points - 1) - 1.0))
            for i in range(grid_points)
        ]
        for f in fields
    ]
    points = [dict(zip(fields, combo)) for combo in itertools.product(*axes)]
    preds = predict(points)
    start_col = [
        preds[oi][len(points) // 2] for oi in range(len(observations))
    ]  # grid center = base constants (odd grid_points)
    result.start_residuals = dict(zip(labels, residuals_at(start_col)))
    costs = [
        sum(
            ((preds[oi][pi] - obs.measured) / obs.measured) ** 2
            for oi, obs in enumerate(observations)
        )
        for pi in range(len(points))
    ]
    best = min(range(len(points)), key=lambda i: costs[i])
    result.grid_best = dict(points[best])

    # -- stage 2: Gauss-Newton polish in log space -----------------------
    x = [math.log(points[best][f]) for f in fields]
    final_res = residuals_at([preds[oi][best] for oi in range(len(observations))])
    for it in range(max_iterations):
        result.iterations = it
        if max(abs(v) for v in final_res) < tolerance:
            result.converged = True
            break
        cur = {f: math.exp(x[j]) for j, f in enumerate(fields)}
        probe = [cur] + [
            dict(cur, **{f: math.exp(x[j] + fd_step)})
            for j, f in enumerate(fields)
        ]
        pr = predict(probe)
        r = residuals_at([pr[oi][0] for oi in range(len(observations))])
        jac = [
            [
                (pr[oi][1 + j] - pr[oi][0]) / observations[oi].measured / fd_step
                for j in range(len(fields))
            ]
            for oi in range(len(observations))
        ]
        dx = _solve_normal_equations(jac, r)
        # Trust region: one grid cell per step keeps the iterate inside
        # the basin the dense sweep certified.
        cap = 2.0 * span / (grid_points - 1)
        x = [x[j] + max(-cap, min(cap, dx[j])) for j in range(len(fields))]
        check = predict([{f: math.exp(x[j]) for j, f in enumerate(fields)}])
        final_res = residuals_at([check[oi][0] for oi in range(len(observations))])
    else:
        result.iterations = max_iterations
        result.converged = max(abs(v) for v in final_res) < tolerance

    result.fitted = {f: math.exp(x[j]) for j, f in enumerate(fields)}
    result.residuals = dict(zip(labels, final_res))
    return result


# ---------------------------------------------------------------------------
# synthetic recovery (the calibration self-test)
# ---------------------------------------------------------------------------

#: Workloads of the synthetic loop: one latency-leaning, one
#: bandwidth-bound SSC run (distinct sensitivity mixes keep the joint fit
#: well-conditioned).
SYNTHETIC_WORKLOADS = ((2, 48), (2, 1024))

#: Constants the synthetic loop perturbs and recovers.
SYNTHETIC_FIELDS = ("alpha", "nic_bandwidth")

#: Injected perturbation factors (deliberately asymmetric and off-grid).
SYNTHETIC_FACTORS = {"alpha": 1.8, "nic_bandwidth": 0.7}


def build_synthetic_observations(
    base: NetworkParams,
    truth: NetworkParams,
    workloads=SYNTHETIC_WORKLOADS,
) -> list[CalibrationObservation]:
    """Record the workloads under ``base``; measure them under ``truth``.

    These are the only simulator runs of the synthetic loop — two per
    workload (one recording, one measurement).  Everything after this is
    replay.
    """
    from repro.kernels.symmsquarecube import run_ssc

    obs = []
    for p, n in workloads:
        rec = run_ssc(p, n, "optimized", n_dup=2, iterations=1,
                      params=base, record=True)
        meas = run_ssc(p, n, "optimized", n_dup=2, iterations=1, params=truth)
        obs.append(
            CalibrationObservation(rec.recording, meas.elapsed,
                                   label=f"ssc-p{p}-n{n}")
        )
    return obs


def calibrate_synthetic(
    *,
    base: NetworkParams | None = None,
    fields: tuple[str, ...] = SYNTHETIC_FIELDS,
    factors: dict | None = None,
    workloads=SYNTHETIC_WORKLOADS,
) -> dict:
    """Inject known constants, fit them back, report the recovery error.

    Returns a JSON-ready dict with the true/fitted constants, per-field
    relative recovery errors, the fit diagnostics, and the simulator-run
    count (recordings + measurements only — the fit itself is pure
    replay).
    """
    base = base or NetworkParams()
    factors = dict(factors or SYNTHETIC_FACTORS)
    unknown = [f for f in factors if f not in fields]
    if unknown:
        raise ValueError(f"perturbed fields {unknown} are not being fitted")
    truth = base.replace(**{f: getattr(base, f) * factors[f] for f in factors})
    observations = build_synthetic_observations(base, truth, workloads)
    fit = fit_fabric_constants(observations, fields, base=base)
    recovery = {
        f: abs(fit.fitted[f] / getattr(truth, f) - 1.0) for f in fields
    }
    return {
        "fields": list(fields),
        "true": {f: getattr(truth, f) for f in fields},
        "fitted": dict(fit.fitted),
        "recovery_rel_error": recovery,
        "max_recovery_rel_error": max(recovery.values()),
        "sim_runs": 2 * len(list(workloads)),
        "fit": fit.to_jsonable(),
    }


# ---------------------------------------------------------------------------
# analytic drift gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftCase:
    """One pinned (workload, analytic estimate, tolerance band) triple."""

    name: str
    kind: str        #: a :data:`repro.kernels.KERNELS` key
    p: int
    n: int
    algorithm: str
    band: float      #: max allowed |analytic/simulated - 1|
    n_dup: int = 1   #: N_DUP (SSC) / color count (SUMMA), as in ``Candidate``
    depth: int = 1


#: The CI drift gate's pinned cases: the quick table-1 SSC point in its
#: three variants and the quick table-6 SUMMA mesh in its three variants.
#: Bands are ~2x the drift measured when they were pinned; the deliberately
#: loose ``summa-plain`` band reflects a model known to underestimate the
#: blocking variant's round-gap serialization.
DRIFT_CASES = (
    DriftCase("ssc-original", "ssc", 4, 7645, "original", 0.10),
    DriftCase("ssc-baseline", "ssc", 4, 7645, "baseline", 0.10),
    DriftCase("ssc-optimized", "ssc", 4, 7645, "optimized", 0.15, n_dup=4),
    DriftCase("summa-plain", "summa", 4, 2048, "plain", 0.55),
    DriftCase("summa-stream-d4", "summa", 4, 2048, "streaming", 0.10,
              depth=4),
    DriftCase("summa-col4-d4", "summa", 4, 2048, "colored", 0.15, n_dup=4,
              depth=4),
)


def _run_drift_case(case: DriftCase, params: NetworkParams) -> tuple[float, float]:
    """(simulated, analytic) elapsed seconds for one case."""
    from repro.kernels import KERNELS
    from repro.tune.candidates import Candidate
    from repro.tune.search import model_time, simulate_candidate
    from repro.tune.signature import signature_for

    mesh = KERNELS[case.kind].mesh_shape(case.p)
    cand = Candidate(case.kind, case.algorithm, mesh, case.n_dup, ppn=1,
                     depth=case.depth)
    sig = signature_for(case.kind, mesh, case.n, params=params)
    sim, _world = simulate_candidate(sig, cand, params)
    return sim, model_time(sig, cand, params)


def model_drift(
    cases=DRIFT_CASES, *, params: NetworkParams | None = None
) -> list[dict]:
    """Simulate each case and compare against its analytic estimate.

    Returns one row per case: the simulated and analytic times, the
    relative drift ``analytic/simulated - 1``, the pinned band, and the
    pass/fail verdict.  The gate passes iff every row's ``ok`` is true.
    """
    params = params or NetworkParams()
    rows = []
    for case in cases:
        sim, est = _run_drift_case(case, params)
        drift = est / sim - 1.0
        rows.append({
            "name": case.name,
            "simulated": sim,
            "analytic": est,
            "drift": drift,
            "band": case.band,
            "ok": abs(drift) <= case.band,
        })
    return rows
