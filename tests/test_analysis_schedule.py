"""Static schedule verifier (RA3xx) tests: proofs, mutations, CLI, property.

Four layers:

* every library generator verifies clean over a grid of ``(p, root, n)`` —
  the positive direction of the proof;
* each built-in mutation fixture (seeded deadlock, dropped recv, shrunk
  recv, flipped alias bit, corrupt peer) yields exactly its expected
  finding — the fail-closed direction;
* the ``check-plans`` walk proves the table1/table2 quick plan population
  clean (the CI acceptance gate), and the executor's ``verify_plans=``
  hook raises on a deliberately-corrupted *cached* plan;
* a hypothesis property ties the static verdicts to the runtime
  :class:`~repro.analysis.verifier.CommVerifier` under fault
  interleavings: statically-clean schedules run clean (no deadlock, no
  runtime findings), and a structurally-mutated schedule is caught by
  *both* layers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.__main__ import main as cli_main
from repro.analysis.findings import Finding
from repro.analysis.schedule import (
    PlanVerificationError,
    _clone_with_rounds,
    assert_plan_sound,
    build_plan_set,
    check_plans,
    drop_op,
    flip_needs_copy,
    mutation_fixtures,
    reset_verified_cache,
    run_selftest,
    signature_from_key,
    verify_cannon_shift_plans,
    verify_collective,
    verify_plan_set,
    verify_selector_envelope,
)
from repro.mpi.collectives.plan import (
    GENERATORS,
    POW2_ONLY,
    SELECTORS,
    get_plan,
    shared_plans,
)
from repro.mpi.world import World
from repro.netmodel import block_placement
from repro.sim.engine import SimulationError
from repro.sim.faults import FaultPlan
from repro.tune.signature import signature_for_ssc, signature_for_ssc25d


def errors_of(findings):
    return [f for f in findings if f.severity == "error"]


@pytest.fixture(autouse=True)
def _clean_plan_state():
    """Tests corrupt cached plans in place; never leak that to other tests."""
    yield
    shared_plans.clear()
    reset_verified_cache()


# -- positive direction: the library proves clean ------------------------------


@pytest.mark.parametrize("p,algorithm", [
    (p, algorithm) for p in (2, 3, 4, 5, 8) for algorithm in sorted(GENERATORS)
    if algorithm not in POW2_ONLY or p & (p - 1) == 0])
def test_library_generators_verify_clean(algorithm, p):
    for root in range(p):
        for n in (0, 1, 7, 64):
            findings = verify_collective(algorithm, p, root, n)
            assert not findings, (
                f"{algorithm} p={p} root={root} n={n}:\n"
                + "\n".join(f.render() for f in findings))


def test_selector_envelope_clean_for_all_verbs():
    for p in (2, 4, 7):
        for n in (0, 64, 10**6):
            assert verify_selector_envelope(p, n) == []


def test_cannon_itineraries_consistent():
    for q in (2, 3, 4):
        for c_steps, offset in ((q, 0), (q // 2 or 1, 1)):
            assert verify_cannon_shift_plans(q, 97, c_steps, offset) == []


def test_selftest_passes():
    assert run_selftest() == []


# -- fail-closed direction: mutations produce their exact finding --------------


def test_mutation_fixtures_each_yield_their_check():
    for name, (plans, expected) in sorted(mutation_fixtures().items()):
        checks = {f.check for f in errors_of(verify_plan_set(plans, name))}
        assert expected in checks, f"{name}: got {sorted(checks)}"


def test_seeded_deadlock_is_only_ra301():
    plans, expected = mutation_fixtures()["seeded-deadlock"]
    assert expected == "RA301"
    assert {f.check for f in verify_plan_set(plans)} == {"RA301"}


def test_dropped_recv_is_only_ra302():
    plans, _ = mutation_fixtures()["dropped-recv"]
    assert {f.check for f in verify_plan_set(plans)} == {"RA302"}


def test_flipped_alias_bit_is_only_ra304():
    plans, _ = mutation_fixtures()["flipped-alias-bit"]
    assert {f.check for f in verify_plan_set(plans)} == {"RA304"}


def test_pessimistic_bit_is_ra305_warning_only():
    # The inverse flip — False -> True on a provably alias-free send — is
    # wasteful, not racy: a warning, never an error.
    plans = build_plan_set("allgather_ring", 4, 0, 16)
    me, r, idx = next(
        (me, r, i) for me, plan in enumerate(plans)
        for r, ops in enumerate(plan.rounds)
        for i, op in enumerate(ops) if op[0] == "send" and not op[5])
    plans[me] = flip_needs_copy(plans[me], r, idx)
    findings = verify_plan_set(plans)
    assert {f.check for f in findings} == {"RA305"}
    assert errors_of(findings) == []


def test_ra306_flags_selector_reading_replay_safe_field(monkeypatch):
    def bad_select(p, n_elems, itemsize, params):
        # Schedule structure keyed on a replay-safe fabric constant: the
        # exact construct RA306 exists to catch.
        if params.nic_bandwidth > 1e9:
            return "bcast_binomial"
        return "bcast_long"

    monkeypatch.setitem(SELECTORS, "bcast", bad_select)
    findings = verify_selector_envelope(4, 64, verbs=("bcast",))
    assert {f.check for f in findings} == {"RA306"}
    assert "nic_bandwidth" in findings[0].message


def test_ra307_flags_selector_returning_unknown_generator(monkeypatch):
    monkeypatch.setitem(SELECTORS, "bcast", lambda p, n, i, params: "nope")
    findings = verify_selector_envelope(4, 64, verbs=("bcast",))
    assert {f.check for f in findings} == {"RA307"}


def test_cannon_mutation_is_caught(monkeypatch):
    from repro.mpi.collectives import plan as plan_mod

    real = plan_mod.cannon_shift_plan

    def skewed(q, i, j, n, steps, offset):
        (a_dst, a_src, b_dst, b_src, l0), shifts = real(q, i, j, n, steps,
                                                        offset)
        if (i, j) == (0, 1):  # one rank misroutes its A alignment
            a_dst = (a_dst + 1) % q
        return (a_dst, a_src, b_dst, b_src, l0), shifts

    monkeypatch.setattr(plan_mod, "cannon_shift_plan", skewed)
    findings = verify_cannon_shift_plans(3, 30, 3, 0)
    assert "RA302" in {f.check for f in findings}


# -- workload walk + executor hook ---------------------------------------------


def test_check_plans_table12_population_is_clean():
    report = check_plans()  # the default table1/table2 quick workloads
    assert errors_of(report.findings) == [], report.summary()
    assert report.plan_sets > 100
    assert report.candidates > 50
    assert any(w.startswith("ssc:") for w in report.workloads)
    assert any(w.startswith("ssc25d:") for w in report.workloads)


def test_check_plans_single_signature():
    report = check_plans([signature_for_ssc(4, 128)])
    assert report.findings == []
    assert report.workloads == [signature_for_ssc(4, 128).key]


def test_check_plans_25d_covers_cannon():
    report = check_plans([signature_for_ssc25d(4, 2, 128)])
    assert report.findings == []
    assert report.cannon_checks > 0


def test_signature_from_key_roundtrip():
    sig = signature_for_ssc(4, 7645)
    back = signature_from_key(sig.key)
    assert (back.kernel, back.n, back.ranks, back.mesh) \
        == (sig.kernel, sig.n, sig.ranks, sig.mesh)
    sig25 = signature_for_ssc25d(4, 2, 512)
    back25 = signature_from_key(sig25.key)
    assert (back25.kernel, back25.n, back25.mesh) == ("ssc25d", 512, (4, 4, 2))
    with pytest.raises(ValueError):
        signature_from_key("ssc:n10")
    with pytest.raises(ValueError):
        signature_from_key("ssc:n10:r8:m2x2x3:ppn1:block:abc")


def test_verify_plans_flag_runs_clean():
    from repro.kernels.symmsquarecube import run_ssc

    res = run_ssc(2, 32, "optimized", n_dup=2, verify_plans=True)
    assert res.elapsed > 0


def test_assert_plan_sound_catches_corrupted_cached_plan():
    # Corrupt the *cached* plan object of one rank — rebuild-based checks
    # would silently repair it; the executor hook must see the live object.
    for me in range(3):
        plan = get_plan("allreduce_short", 3, me, 0, 100)
        hit = next(((r, i) for r, ops in enumerate(plan.rounds)
                    for i, op in enumerate(ops)
                    if op[0] == "send" and op[5]), None)
        if hit is not None:
            shared_plans._plans[plan.key] = flip_needs_copy(plan, *hit)
    reset_verified_cache()
    with pytest.raises(PlanVerificationError) as exc:
        assert_plan_sound(get_plan("allreduce_short", 3, 0, 0, 100))
    assert {f.check for f in exc.value.findings} == {"RA304"}


def test_assert_plan_sound_memoizes_and_skips_raw_plans():
    from repro.mpi.collectives.plan import CollectivePlan

    plan = get_plan("bcast_binomial", 4, 0, 0, 16)
    assert_plan_sound(plan)
    assert_plan_sound(plan)  # memo hit: must not re-verify or raise
    raw = CollectivePlan.from_schedule([[("send", 1, 0, 4)]], 8)
    assert_plan_sound(raw)  # key=None: no registry set to verify


# -- static verdicts vs the runtime verifier (the consistency property) --------


def _drive_plans(plans, n, *, faults=None):
    """Execute one plan per rank on a fresh verified world; return the world.

    This is the runtime half of the consistency property: the exact plan
    objects the static pass judged are handed to
    :class:`~repro.mpi.collectives.executor.ScheduleRunner` on every rank
    under ``World(verify=True)``.
    """
    p = len(plans)
    world = World(block_placement(p, 2), verify=True, faults=faults)

    def program(env):
        view = env.view(world.comm_world)
        buf = np.zeros(max(n, 1))
        req = view._start(plans[env.rank], buf, 8, True, "coll")
        yield from req.wait()

    world.spawn_all(program, ranks=range(p))
    world.run()
    return world


@settings(max_examples=12, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(GENERATORS)),
    p=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_static_clean_implies_runtime_clean(algorithm, p, n, seed):
    assume(algorithm not in POW2_ONLY or p & (p - 1) == 0)
    plans = build_plan_set(algorithm, p, 0, n)
    assert errors_of(verify_plan_set(plans)) == []
    faults = FaultPlan.random(seed, num_ranks=p, num_nodes=(p + 1) // 2,
                              horizon=1e-3)
    world = _drive_plans(plans, n, faults=faults)
    assert world.verifier.errors() == []
    assert not world.unfinished()


@settings(max_examples=8, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=4, max_value=32),
)
def test_structural_mutation_caught_by_both_layers(p, n):
    plans = build_plan_set("bcast_binomial", p, 0, n)
    # Drop rank 1's receive: statically an unmatched send, dynamically a
    # wedged schedule (rank 0 waits forever on the orphaned send).
    me, r, idx = next(
        (me, r, i) for me, plan in enumerate(plans) if me == 1
        for r, ops in enumerate(plan.rounds)
        for i, op in enumerate(ops) if op[0] != "send" and op[3] > op[2])
    plans[1] = drop_op(plans[1], r, idx)
    assert "RA302" in {f.check for f in errors_of(verify_plan_set(plans))}
    # Dynamically the orphaned send either wedges the run (rendezvous path:
    # RA106 deadlock inside the SimulationError) or drains unreceived
    # (eager path: RA104 at finalize) — the runtime layer flags it either way.
    try:
        world = _drive_plans(plans, n)
    except SimulationError as exc:
        assert "deadlock" in str(exc)
    else:
        assert "RA104" in {f.check for f in world.verifier.errors()}


@pytest.mark.parametrize("mutation", ["empty", "fill"])
def test_round_emptying_and_filling_fixtures_seen_by_both_layers(mutation):
    # Binomial bcast on 4 ranks: rank 2 idles in round 0 and receives from
    # the root in round 1.  Emptying that round orphans the root's send;
    # filling round 0 with a receive from rank 3 (which never sends to 2)
    # wedges rank 2.  The executor skips empty rounds, so it must see the
    # emptied round as idle and the filled one as posted, exactly as the
    # static layer does.
    n = 16
    plans = build_plan_set("bcast_binomial", 4, 0, n)
    assert [bool(ops) for ops in plans[2].rounds] == [False, True]
    if mutation == "empty":
        plans[2] = drop_op(plans[2], 1, 0)
        assert not any(plans[2].rounds)
    else:
        rounds = [list(ops) for ops in plans[2].rounds]
        rounds[0].append(("copy", 3, 0, n, n * 8, False))
        plans[2] = _clone_with_rounds(plans[2], rounds)
        assert all(plans[2].rounds)
    assert "RA302" in {f.check for f in errors_of(verify_plan_set(plans))}
    if mutation == "empty":
        world = _drive_plans(plans, n)  # eager send drains unreceived
        assert "RA104" in {f.check for f in world.verifier.errors()}
    else:
        with pytest.raises(SimulationError, match="deadlock"):
            _drive_plans(plans, n)


# -- CLI -----------------------------------------------------------------------


def test_cli_check_plans_workload_and_selftest(capsys):
    assert cli_main(["check-plans", "--kernel", "ssc", "--n", "64"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out

    assert cli_main(["check-plans", "--selftest"]) == 0
    assert "selftest passed" in capsys.readouterr().out


def test_cli_check_plans_signature_and_usage_errors(capsys):
    key = signature_for_ssc(4, 64).key
    assert cli_main(["check-plans", "--signature", key]) == 0
    capsys.readouterr()

    assert cli_main(["check-plans", "--n", "64"]) == 2
    assert "--n requires --kernel" in capsys.readouterr().err
    assert cli_main(["check-plans", "--kernel", "ssc"]) == 2
    assert "--kernel requires --n" in capsys.readouterr().err
    assert cli_main(["check-plans", "--signature", "bogus"]) == 2
    capsys.readouterr()


def test_cli_sarif_output_is_valid(capsys):
    assert cli_main(["check-plans", "--kernel", "ssc", "--n", "64",
                     "--format", "sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    rules = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert {"RA301", "RA304", "RA306"} <= rules
    assert doc["runs"][0]["results"] == []


def test_cli_fail_on_distinguishes_warnings():
    from repro.analysis.__main__ import _exit_code

    warning_only = [Finding(check="RA305", message="m")]
    assert _exit_code(warning_only, "warning") == 1
    assert _exit_code(warning_only, "error") == 0
    error_too = warning_only + [Finding(check="RA304", message="m")]
    assert _exit_code(error_too, "error") == 1
