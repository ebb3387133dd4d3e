"""The kernel registry: one spec per kernel, one driver, every option everywhere.

Three contracts of ``repro.kernels.KERNELS`` / ``run_kernel``:

* the registry reproduces, bit for bit, the candidate space, analytic
  scores and static-verification walk the per-kernel switch statements
  produced before they were replaced by spec lookups (pinned digests);
* every kernel runner accepts every shared option and the option has its
  observable effect — on the direct path *and* on the tuned path (the
  tuned re-dispatch once dropped ``trace`` for SUMMA);
* hooks are passive: tracing + verifying a real-mode run changes no number.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import run_ssc, run_ssc25d, run_summa
from repro.analysis.schedule import check_plans, default_signatures
from repro.kernels import KERNELS
from repro.sim.engine import DeadlineExceeded
from repro.sim.faults import FaultPlan, LinkDegradation
from repro.sim.trace import SpanKind
from repro.tune import enumerate_candidates, model_time, paper_default_candidate

# One small workload per registered kernel: (runner, shape args, n) — n
# large enough that a throttled link shows on the modeled clock.
SMALL = {
    "ssc": (run_ssc, (2,), 512),
    "ssc25d": (run_ssc25d, (2, 2), 512),
    "summa": (run_summa, (2,), 512),
}


def test_every_registered_kernel_has_a_small_workload():
    assert sorted(SMALL) == sorted(KERNELS)


# ---------------------------------------------------------------------------
# registry consistency: pinned at the commit *before* the switch sites were
# replaced by spec lookups
# ---------------------------------------------------------------------------

#: sha256 over (ordered candidate keys, paper default key, every model_time
#: as float.hex(), check_plans summary) per default-population signature.
REGISTRY_PINS = {
    "ssc:n5330:r64:m4x4x4:ppn1:block:05e6c9ade207":
        "161ae60d71871b6f7477ca7b18c7f36f32489a72f1da2b77d8c787f2b89c44fa",
    "ssc:n6895:r64:m4x4x4:ppn1:block:05e6c9ade207":
        "1bb31184890b38891a43a40862f0b0862ea88529536d863863100cf10880bc64",
    "ssc:n7645:r64:m4x4x4:ppn1:block:05e6c9ade207":
        "f06f3fd7f66eee2dcedad7f18fd59e0b35ecf507233180e3c6a713d02e67d654",
    "ssc25d:n512:r32:m4x4x2:ppn1:block:05e6c9ade207":
        "ac5a2f727a388276ab0ddfd47ee72c226a0cdb6a90330318d6250c409120ae78",
    "summa:n1024:r16:m4x4x1:ppn1:block:05e6c9ade207":
        "fc83e192b5c8bc616386502ac2326f7ed886ab87f081d84705c66dddb0c60ba7",
}


@pytest.mark.parametrize("sig", default_signatures(), ids=lambda s: s.key)
def test_registry_reproduces_pinned_candidate_space(sig):
    cands = enumerate_candidates(sig)
    doc = {
        "keys": [c.key for c in cands],
        "default": paper_default_candidate(sig).key,
        "model": [model_time(sig, c).hex() for c in cands],
        "plans": check_plans([sig]).summary(),
    }
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == REGISTRY_PINS[sig.key]


# ---------------------------------------------------------------------------
# option parity: kernel x shared option x {direct, tuned}
# ---------------------------------------------------------------------------


def _faults():
    return FaultPlan([LinkDegradation(0, 0.0, 1.0, 0.5)], seed=3)


def _check_trace(res, plain):
    assert res.world.trace.enabled
    assert res.world.trace.of_kind(SpanKind.TRANSFER)


def _check_faults(res, plain):
    assert res.world.faults is not None
    # The throttled link (or the negotiated blocking fallback) is on the clock.
    assert res.elapsed != plain.elapsed


def _check_verify(res, plain):
    assert res.world.verifier.finalized
    assert res.world.verifier.findings == []


def _check_verify_plans(res, plain):
    assert res.world.verify_plans


def _check_record(res, plain):
    assert res.recording is not None
    assert res.recording.meta["kernel"] == res.config.kernel


def _check_placement(res, plain):
    placed = [res.world.cluster.node_of(r) for r in range(4)]
    assert placed != [plain.world.cluster.node_of(r) for r in range(4)]


def _check_iterations(res, plain):
    assert len(res.times) == 2


#: option -> (kwargs, observable effect).  ``ppn=2`` rides along where the
#: effect needs co-resident ranks.
OPTION_EFFECTS = {
    "trace": (dict(trace=True), _check_trace),
    "faults": (dict(faults=_faults), _check_faults),
    "verify": (dict(verify=True), _check_verify),
    "verify_plans": (dict(verify_plans=True), _check_verify_plans),
    "record": (dict(record=True), _check_record),
    "placement": (dict(placement="round_robin", ppn=2), _check_placement),
    "iterations": (dict(iterations=2), _check_iterations),
}


def _run(kernel, tuned=False, **kwargs):
    runner, shape, n = SMALL[kernel]
    kwargs = {k: v() if callable(v) else v for k, v in kwargs.items()}
    if tuned:
        kwargs["tune"] = "model-only"
    return runner(*shape, n, **kwargs)


@pytest.mark.parametrize("tuned", [False, True], ids=["direct", "tuned"])
@pytest.mark.parametrize("option", sorted(OPTION_EFFECTS))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_option_accepted_with_observable_effect(kernel, option, tuned):
    kwargs, check = OPTION_EFFECTS[option]
    plain = _run(kernel, tuned, ppn=kwargs.get("ppn", 1))
    res = _run(kernel, tuned, **kwargs)
    if tuned:
        assert res.tuning is not None and res.config == res.tuning.best
    check(res, plain)


@pytest.mark.parametrize("tuned", [False, True], ids=["direct", "tuned"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_tiny_deadline_raises(kernel, tuned):
    with pytest.raises(DeadlineExceeded, match=f"run_{kernel}"):
        _run(kernel, tuned, deadline=1e-9)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_recording_under_faults_is_invalid_with_a_reason(kernel):
    rec = _run(kernel, record=True, faults=_faults).recording
    assert not rec.valid and "fault" in rec.invalid_reason


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_hooks_do_not_change_real_mode_results(kernel):
    runner, shape, _n = SMALL[kernel]
    n = 16
    rng = np.random.default_rng(11)
    m = rng.standard_normal((n, n))
    data = (dict(a=m, b=m.T.copy()) if kernel == "summa"
            else dict(d=m + m.T))
    plain = runner(*shape, n, **data)
    hooked = runner(*shape, n, **data, trace=True, verify=True)
    assert hooked.times == plain.times
    for name in ("d2", "d3", "c"):
        if hasattr(plain, name):
            assert np.array_equal(getattr(hooked, name), getattr(plain, name))
    if kernel == "summa":
        assert np.allclose(plain.c, data["a"] @ data["b"])
    else:
        d = data["d"]
        assert np.allclose(plain.d2, d @ d)
        assert np.allclose(plain.d3, d @ d @ d)


# ---------------------------------------------------------------------------
# KernelSpec.population covers what a run posts
# ---------------------------------------------------------------------------

#: Small signatures per kernel, as (shape args, n): two- and three-rank
#: communicators (binomial, ring and long schedules), non-divisible
#: blocks, one- and three-layer 2.5D meshes.
POPULATION_SIGS = {
    "ssc": (((2,), 7), ((3,), 13)),
    "ssc25d": (((2, 1), 30), ((3, 3), 12)),
    "summa": (((3,), 30), ((4,), 17)),
}


def _verb(algorithm: str) -> str:
    """The collective verb a plan algorithm implements."""
    from repro.mpi.collectives.plan import SELECTORS

    return max((v for v in SELECTORS
                if algorithm == v or algorithm.startswith(v + "_")), key=len)


@pytest.mark.parametrize("kernel", sorted(POPULATION_SIGS))
def test_population_covers_every_posted_collective(kernel, monkeypatch):
    """``KernelSpec.population`` is a superset of the collectives a run
    posts, and each posts the algorithm its selector names under the
    candidate's effective parameters — the two facts ``check_plans`` and
    the tuner's schedule key rest on.  Every candidate runs with all three
    collective overrides (at PPN 1: PPN moves ranks across nodes, never a
    schedule), in real mode, whose ``(n_elems, itemsize)`` shapes
    the population names, and modeled, which posts the same byte counts
    as ``(nbytes, 1)``."""
    from repro.kernels import run_kernel
    from repro.mpi.collectives.plan import SELECTORS, PlanCache
    from repro.netmodel import MachineParams
    from repro.tune.candidates import effective_params
    from repro.tune.signature import signature_for

    assert sorted(POPULATION_SIGS) == sorted(KERNELS)
    posted = []
    get = PlanCache.get

    def recording_get(self, algorithm, p, me, root=0, n_elems=0, itemsize=8):
        posted.append((algorithm, p, root, n_elems, itemsize))
        return get(self, algorithm, p, me, root, n_elems, itemsize)

    monkeypatch.setattr(PlanCache, "get", recording_get)
    spec = KERNELS[kernel]
    machine = MachineParams(cores_per_node=1)
    rng = np.random.default_rng(5)
    collectives = set()
    for shape, n in POPULATION_SIGS[kernel]:
        m = rng.standard_normal((n, n))
        data = (m, m.T.copy()) if kernel == "summa" else (m + m.T,)
        sig = signature_for(kernel, spec.mesh_shape(*shape), n)
        for cand in enumerate_candidates(sig, machine=machine):
            collectives.add(cand.collective)
            population = set(spec.population(cand, n))
            in_bytes = {(v, size, root, ne * isz)
                        for v, size, root, ne, isz in population}
            eff = effective_params(cand)
            for real in (True, False):
                del posted[:]
                run_kernel(spec, cand, n, data if real else (), params=eff,
                           machine=machine)
                assert posted, cand.key
                for algorithm, size, root, n_elems, itemsize in set(posted):
                    verb = _verb(algorithm)
                    op = (verb, size, root, n_elems, itemsize)
                    if real:
                        assert op in population, (sig.key, cand.key, op)
                    else:
                        assert itemsize == 1, op
                        assert op[:4] in in_bytes, (sig.key, cand.key, op)
                    assert algorithm == SELECTORS[verb](
                        size, n_elems, itemsize, eff), (cand.key, op)
    assert collectives == {"auto", "binomial", "long"}
