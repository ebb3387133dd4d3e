"""Replay equivalence: the recorded event graph re-prices runs bit-for-bit.

The contract of :mod:`repro.sim.replay` is *exactness by construction*:
solving the recorded max-plus graph with the real fabric pricing the
recorded flows must reproduce — to the last bit — the completion times a
full simulation produces, both at the recording's own constants (identity)
and under any :data:`~repro.sim.replay.REPLAY_SAFE_FIELDS` perturbation.
These tests enforce that contract on the quick Table I / Table II kernel
workloads and on randomized fault-free message storms (the shared schedule
generator lives in ``tests/conftest.py``), and pin the validity envelope:
structural parameter changes, machine changes, fault plans and
timing-dependent control flow must all *refuse* rather than drift.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from dataclasses import fields

from repro.dense import run_summa
from repro.kernels.ssc25d import run_ssc25d
from repro.kernels.symmsquarecube import run_ssc
from repro.mpi.requests import waitany
from repro.netmodel import MachineParams, NetworkParams
from repro.sim.engine import DeadlineExceeded
from repro.sim.faults import FaultPlan, LinkDegradation
from repro.sim.replay import (
    REPLAY_SAFE_FIELDS,
    ReplayInvalid,
    replay,
    replay_kernel,
)

from repro.tune.candidates import effective_params, enumerate_candidates
from repro.tune.search import simulate_candidate
from repro.tune.signature import signature_for_summa

from tests.conftest import make_world, run_storm_world, storm_messages

BASE = NetworkParams()

#: Every safe field exercised at least once (scales chosen to move real
#: flow dynamics: latency up and down, bandwidths throttled, caps halved).
SAFE_PERTURBATIONS = [
    ("alpha", 1.5),
    ("alpha", 0.75),
    ("shm_alpha", 2.0),
    ("nic_bandwidth", 0.5),
    ("nic_bandwidth", 0.8),
    ("shm_bandwidth", 0.5),
    ("process_injection_bandwidth", 0.7),
    ("shm_flow_cap", 0.5),
    ("flow_half_size", 2.0),
]


def perturb(field: str, scale: float) -> NetworkParams:
    return BASE.replace(**{field: getattr(BASE, field) * scale})


#: Quick kernel workloads shaped like the paper's Table I (pure inter-node)
#: and Table II/III (N_DUP x PPN with intra-node traffic) regimes.
KERNEL_CFGS = {
    "table1-original": dict(algorithm="original", n_dup=1, ppn=1,
                            iterations=1),
    "table1-optimized": dict(algorithm="optimized", n_dup=2, ppn=1,
                             iterations=2),
    "table2-ppn": dict(algorithm="optimized", n_dup=2, ppn=2, iterations=1),
}


def record_ssc(cfg: dict, params: NetworkParams, **kw):
    res = run_ssc(2, 64, cfg["algorithm"], n_dup=cfg["n_dup"],
                  ppn=cfg["ppn"], iterations=cfg["iterations"],
                  params=params, record=True, **kw)
    return res


class TestKernelReplayEquivalence:
    @pytest.mark.parametrize("name", sorted(KERNEL_CFGS))
    def test_identity_replay_is_bit_exact(self, name):
        cfg = KERNEL_CFGS[name]
        res = record_ssc(cfg, BASE)
        rec = res.recording
        assert rec is not None and rec.valid, rec.invalid_reason
        elapsed, world_time = replay_kernel(rec, params=BASE)
        assert elapsed == res.elapsed
        assert world_time == res.world.engine.now

    @pytest.mark.parametrize("name", sorted(KERNEL_CFGS))
    @pytest.mark.parametrize("field,scale", SAFE_PERTURBATIONS)
    def test_perturbed_replay_matches_fresh_simulation(self, name, field,
                                                       scale):
        cfg = KERNEL_CFGS[name]
        rec = record_ssc(cfg, BASE).recording
        p1 = perturb(field, scale)
        elapsed, world_time = replay_kernel(rec, params=p1)
        fresh = run_ssc(2, 64, cfg["algorithm"], n_dup=cfg["n_dup"],
                        ppn=cfg["ppn"], iterations=cfg["iterations"],
                        params=p1)
        assert elapsed == fresh.elapsed            # bit-for-bit, no tolerance
        assert world_time == fresh.world.engine.now

    @pytest.mark.parametrize("field,scale",
                             [("alpha", 1.5), ("nic_bandwidth", 0.5),
                              ("shm_bandwidth", 0.5)])
    def test_ssc25d_perturbed_replay_matches_fresh_simulation(self, field,
                                                              scale):
        res = run_ssc25d(2, 2, 64, n_dup=2, ppn=1, params=BASE, record=True)
        rec = res.recording
        assert rec is not None and rec.valid, rec.invalid_reason
        p1 = perturb(field, scale)
        elapsed, world_time = replay_kernel(rec, params=p1)
        fresh = run_ssc25d(2, 2, 64, n_dup=2, ppn=1, params=p1)
        assert elapsed == fresh.elapsed
        assert world_time == fresh.world.engine.now

    def test_per_iteration_marks_resolve(self):
        cfg = KERNEL_CFGS["table1-optimized"]
        rec = record_ssc(cfg, BASE).recording
        r = replay(rec, params=perturb("alpha", 1.25))
        for it in range(cfg["iterations"]):
            for rank in range(8):
                t0 = r.marks[("t0", rank, it)]
                t1 = r.marks[("t1", rank, it)]
                assert t1 >= t0 >= 0.0
        assert len(r.flow_times) == r.n_flows
        assert all(t is not None for t in r.flow_times)


class TestStormReplayEquivalence:
    """Randomized fault-free storms: replay == fresh simulation, always."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16),
           shape=st.sampled_from(((4, 1), (6, 1), (8, 2))),
           pert=st.sampled_from([None] + SAFE_PERTURBATIONS))
    def test_storm_replay_matches_fresh_simulation(self, seed, shape, pert):
        ranks, ppn = shape
        msgs = storm_messages(ranks, seed)
        final0, w0 = run_storm_world(msgs, ranks, ppn=ppn, params=BASE,
                                     record=True)
        rec = w0.recorder
        assert rec is not None and rec.valid, rec.invalid_reason
        params = BASE if pert is None else perturb(*pert)
        try:
            r = replay(rec, params=params)
        except ReplayInvalid as exc:
            # The only legitimate data-dependent refusal: two submissions
            # reaching one FIFO compute queue at the same instant in an
            # order the graph cannot know.  Never on identity replays, and
            # never a silent wrong answer.
            assert pert is not None
            assert "ambiguous same-instant order in a FIFO compute queue" \
                in str(exc)
            return
        final1, w1 = run_storm_world(msgs, ranks, ppn=ppn, params=params,
                                     record=True)
        assert r.final_time == final1
        # Per-rank completion instants and per-flow finish times must also
        # match what a recording made *at* the perturbed constants reports.
        r_native = replay(w1.recorder, params=params)
        assert r.marks == r_native.marks
        assert r.flow_times == r_native.flow_times

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_identity_storm_replay_never_refuses(self, seed):
        msgs = storm_messages(8, seed, n_msgs=12)
        final0, w0 = run_storm_world(msgs, 8, ppn=2, params=BASE, record=True)
        r = replay(w0.recorder, params=BASE)  # must not raise
        assert r.final_time == final0


class TestValidityEnvelope:
    def test_safe_fields_exist_on_network_params(self):
        names = {f.name for f in fields(NetworkParams)}
        assert REPLAY_SAFE_FIELDS <= names

    def test_structural_parameter_change_is_refused(self):
        rec = record_ssc(KERNEL_CFGS["table1-optimized"], BASE).recording
        p1 = BASE.replace(long_message_threshold=BASE.long_message_threshold * 2)
        with pytest.raises(ReplayInvalid, match="long_message_threshold"):
            replay_kernel(rec, params=p1)

    def test_machine_change_is_refused(self):
        rec = record_ssc(KERNEL_CFGS["table1-original"], BASE).recording
        other = MachineParams(node_flops=2.0e12)
        with pytest.raises(ReplayInvalid, match="machine"):
            replay_kernel(rec, params=BASE, machine=other)

    def test_fault_plan_invalidates_the_recording(self):
        plan = FaultPlan([LinkDegradation(node=0, t_start=0.0, t_end=1.0,
                                          factor=0.5)], seed=1)
        res = run_ssc(2, 64, "optimized", n_dup=2, ppn=1, params=BASE,
                      faults=plan, record=True)
        rec = res.recording
        assert rec is not None and not rec.valid
        assert "fault" in rec.invalid_reason
        with pytest.raises(ReplayInvalid, match="fault"):
            replay(rec, params=BASE)

    def test_waitany_invalidates_the_recording(self):
        world = make_world(2, params=BASE, record=True)

        def program(env):
            comm = env.view(world.comm_world)
            if env.rank == 0:
                yield from comm.send(1, nbytes=1000, tag=0)
                yield from comm.send(1, nbytes=1000, tag=1)
            else:
                r0 = yield from comm.irecv(0, tag=0)
                r1 = yield from comm.irecv(0, tag=1)
                idx, _val = yield from waitany([r0, r1])
                yield from (r1 if idx == 0 else r0).wait()

        world.spawn_all(program)
        world.run()
        rec = world.recorder
        assert not rec.valid
        with pytest.raises(ReplayInvalid):
            replay(rec, params=BASE)


class TestDeadlineSemantics:
    def test_replay_deadline_matches_live_bounded_run(self):
        cfg = KERNEL_CFGS["table1-optimized"]
        res = record_ssc(cfg, BASE)
        rec = res.recording
        finish = res.world.engine.now
        # Tight deadline: both the live bounded run and the replay must
        # report DeadlineExceeded.
        tight = finish * 0.5
        with pytest.raises(DeadlineExceeded):
            run_ssc(2, 64, cfg["algorithm"], n_dup=cfg["n_dup"],
                    ppn=cfg["ppn"], iterations=cfg["iterations"],
                    params=BASE, deadline=tight)
        with pytest.raises(DeadlineExceeded):
            replay_kernel(rec, params=BASE, deadline=tight)
        # Loose deadline: identical scores, and world_time pinned to the
        # deadline exactly as Engine.run(until=...) pins the live clock.
        loose = finish * 2.0
        live = run_ssc(2, 64, cfg["algorithm"], n_dup=cfg["n_dup"],
                       ppn=cfg["ppn"], iterations=cfg["iterations"],
                       params=BASE, deadline=loose)
        elapsed, world_time = replay_kernel(rec, params=BASE, deadline=loose)
        assert elapsed == live.elapsed
        assert world_time == live.world.engine.now == loose


# -- exact or refused, across the kernel families -------------------------------

#: name -> (runner, positional args, keyword args, base constants).  Small
#: meshes of every family the tuner models; N_DUP > 1 and the pipelined
#: SUMMA variants are where FIFO queues reorder and tie.
_LANES2 = NetworkParams(num_channels=2)
FAMILY_CFGS = {
    "ssc-p2": (run_ssc, (2, 256, "optimized"), dict(n_dup=4), BASE),
    "ssc-p3": (run_ssc, (3, 1536, "optimized"), dict(n_dup=4), BASE),
    "ssc-p4": (run_ssc, (4, 512, "optimized"), dict(n_dup=2), BASE),
    "ssc25d-2x2x2": (run_ssc25d, (2, 2, 256), dict(n_dup=4), BASE),
    "ssc25d-4x4x2": (run_ssc25d, (4, 2, 512), dict(n_dup=2), BASE),
    "summa-plain": (run_summa, (4, 512), dict(algorithm="plain"), BASE),
    "summa-streaming": (run_summa, (4, 2048),
                        dict(algorithm="streaming", depth=4, ppn=2), BASE),
    "summa-colored": (run_summa, (4, 2048),
                      dict(algorithm="colored", colors=2, depth=2), _LANES2),
}

FAMILY_PERTURBATIONS = SAFE_PERTURBATIONS + [("nic_bandwidth", 2.0)]

#: Deadlines as multiples of the live world time; 1 + 1e-9 is the tuner's
#: DEADLINE_SLACK.
FAMILY_DEADLINES = (None, 0.5, 0.999, 1.0 + 1e-9)

TIE = "ambiguous same-instant order in a FIFO compute queue"


def _verdict(fn):
    """``(elapsed, world time)`` of a kernel run or replay, or how it ended."""
    try:
        out = fn()
    except DeadlineExceeded:
        return "deadline"
    except ReplayInvalid as exc:
        assert TIE in str(exc), exc         # the only data-dependent refusal
        return "refused"
    if isinstance(out, tuple):
        return out
    return out.elapsed, out.world.engine.now


class TestExactOrRefused:
    """Every served replay equals the live run — times and deadline verdict."""

    @pytest.mark.parametrize("name", sorted(FAMILY_CFGS))
    def test_family_matrix(self, name):
        runner, args, kwargs, base = FAMILY_CFGS[name]
        rec = runner(*args, **kwargs, params=base, record=True).recording
        assert rec is not None and rec.valid, rec.invalid_reason
        served = 0
        for field, scale in FAMILY_PERTURBATIONS:
            params = base.replace(**{field: getattr(base, field) * scale})
            _elapsed, world = _verdict(
                lambda: runner(*args, **kwargs, params=params))
            for factor in FAMILY_DEADLINES:
                deadline = None if factor is None else world * factor
                got = _verdict(lambda: replay_kernel(rec, params,
                                                     deadline=deadline))
                if got == "refused":
                    continue
                served += 1
                assert got == _verdict(lambda: runner(
                    *args, **kwargs, params=params, deadline=deadline)), \
                    (name, field, scale, factor)
        # Refusals are the exception, not the way the test passes.
        assert served >= 0.75 * len(FAMILY_PERTURBATIONS) * len(FAMILY_DEADLINES)

    def test_streaming_summa_ties_repro(self):
        """The 15 ``streaming:*:t4`` SUMMA candidates at p=4, n=2048 under
        five NIC bandwidths: two equal flows land together on one rank and
        their callback order follows the live timer history.  Trusting the
        recorded order there gave wrong times; freezing it refused 64 of
        the 75."""
        sig = signature_for_summa(4, 2048)
        cands = [c for c in enumerate_candidates(sig)
                 if c.algorithm == "streaming" and c.depth == 4]
        assert len(cands) == 15
        served = 0
        for cand in cands:
            _kt, _wt, rec = simulate_candidate(sig, cand, BASE, record=True)
            for scale in (0.5, 0.9, 0.913, 1.1, 2.0):
                params = perturb("nic_bandwidth", scale)
                got = _verdict(lambda: replay_kernel(
                    rec, effective_params(cand, params)))
                if got == "refused":
                    continue
                served += 1
                assert got == simulate_candidate(
                    signature_for_summa(4, 2048, params=params), cand,
                    params), (cand.key, scale)
        assert served >= 50
