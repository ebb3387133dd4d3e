"""Runtime verifier (RA1xx) tests: fixtures, mutations, timing neutrality.

Every runtime check has a fixture program under ``tests/data/analysis/``
that triggers exactly that check, plus a mutation-style twin: running the
same fixture with the check disabled (``CommVerifier(disabled={...})``)
must make the finding disappear — proving the detection comes from that
hook and not from a side effect.

The other pinned property is *passivity*: ``World(verify=True)`` must not
move a single event.  The golden-trace comparison below runs the reference
SymmSquareCube scenario with the verifier attached and requires the trace
to match the checked-in fixture bit for bit.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from tests.conftest import make_world
from repro.analysis import CHECKS, CommVerifier
from repro.mpi.requests import waitall, waitany

FIXTURE_DIR = pathlib.Path(__file__).parent / "data" / "analysis"


def load_fixture(name: str):
    path = FIXTURE_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"analysis_fixture_{name}",
                                                  path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


RUNTIME_CHECKS = [f"RA10{i}" for i in range(1, 8)]


def checks_of(world) -> set[str]:
    return {f.check for f in world.verifier.findings}


@pytest.mark.parametrize("check", RUNTIME_CHECKS)
def test_fixture_triggers_check(check):
    world = load_fixture(f"rt_{check.lower()}").run()
    assert check in checks_of(world)


@pytest.mark.parametrize("check", RUNTIME_CHECKS)
def test_disabling_check_silences_fixture(check):
    """Mutation twin: the finding vanishes iff its hook is turned off."""
    world = load_fixture(f"rt_{check.lower()}").run(disabled={check})
    assert check not in checks_of(world)


def test_verify_off_means_no_verifier():
    world = make_world(2)
    assert world.verifier is None
    world = make_world(2, verify=True)
    assert isinstance(world.verifier, CommVerifier)


def test_findings_carry_rank_time_and_site():
    world = load_fixture("rt_ra101").run()
    finding = next(f for f in world.verifier.findings if f.check == "RA101")
    assert finding.rank in (0, 1)
    assert finding.time is not None and finding.time >= 0.0
    assert finding.site is not None and "rt_ra101.py" in finding.site
    assert "rank" in finding.message and "bcast" in finding.message
    assert finding.severity == "error"
    # Both call sites are reported: the diverging rank's and the reference's.
    assert finding.extra["other_site"] is not None


def test_ra105_is_a_warning_and_errors_excludes_it():
    world = load_fixture("rt_ra105").run()
    v = world.verifier
    assert any(f.check == "RA105" for f in v.findings)
    assert all(f.check != "RA105" for f in v.errors())


def test_deadlock_report_names_ranks_and_cycle():
    world = load_fixture("rt_ra106").run()
    findings = [f for f in world.verifier.findings if f.check == "RA106"]
    assert {f.rank for f in findings if f.rank is not None} == {0, 1}
    assert any("recv from" in f.message for f in findings)
    cycle = next(f for f in findings if "wait-for cycle" in f.message)
    assert "r0 -> r1 -> r0" in cycle.message or "r1 -> r0 -> r1" in cycle.message


def test_deadlock_report_is_appended_to_simulation_error():
    from repro.sim.engine import SimulationError

    world = make_world(2, verify=True)

    def program(env):
        comm = env.view(world.comm_world)
        yield from comm.recv(1 - comm.rank)

    world.spawn_all(program)
    with pytest.raises(SimulationError) as exc:
        world.run()
    assert "recv from" in str(exc.value)


def test_collective_posted_out_of_order_is_flagged():
    """Reordered collectives (kind mismatch) — the textbook RA101 case.

    The mismatched schedules eventually deadlock; the sequence divergence
    is reported first, with both call sites, which is the diagnosis a user
    actually needs.
    """
    from repro.sim.engine import SimulationError

    world = make_world(2, verify=True)

    def program(env):
        comm = env.view(world.comm_world)
        if comm.rank == 0:
            yield from comm.bcast(nbytes=64, root=0)
            yield from comm.allreduce(nbytes=64)
        else:
            yield from comm.allreduce(nbytes=64)
            yield from comm.bcast(nbytes=64, root=0)

    world.spawn_all(program)
    with pytest.raises(SimulationError):
        world.run()
    assert "RA101" in checks_of(world)
    finding = next(f for f in world.verifier.findings if f.check == "RA101")
    assert finding.extra["other_site"] is not None


def test_clean_program_has_no_findings():
    world = make_world(4, verify=True)

    def program(env):
        comm = env.view(world.comm_world)
        buf = np.zeros(256)
        req = yield from comm.ibcast(buf, root=0)
        yield from req.wait()
        yield from comm.allreduce(buf)
        yield from comm.barrier()

    world.spawn_all(program)
    world.run()
    assert world.verifier.findings == []
    assert world.verifier.finalized


# -- satellites: waitall/waitany empty semantics + public result ---------------


def test_waitany_empty_raises_and_is_flagged_when_verifying():
    world = load_fixture("rt_ra107").run()
    finding = next(f for f in world.verifier.findings if f.check == "RA107")
    assert finding.site is not None and "rt_ra107.py" in finding.site


@pytest.mark.parametrize("fixture,check", [
    ("rt_ra101", "RA101"), ("rt_ra107", "RA107"), ("rt_ra106", "RA106")])
def test_call_site_equals_the_traceback_derived_site(monkeypatch, fixture,
                                                     check):
    """The frame walk names the site ``traceback.extract_stack`` did: the
    innermost frame outside the library, as ``file:line in name``."""
    import sys
    import traceback

    from repro.analysis import findings, verifier

    pairs = []

    def both():
        caller = sys._getframe(1)
        site = findings.call_site(caller)
        ref = next((f"{fs.filename.replace(chr(92), '/')}:{fs.lineno} in "
                    f"{fs.name}"
                    for fs in reversed(traceback.extract_stack(caller))
                    if not any(d in fs.filename.replace(chr(92), "/")
                               for d in findings._LIBRARY_DIRS)), None)
        pairs.append((site, ref))
        return site

    monkeypatch.setattr(verifier, "call_site", both)
    world = load_fixture(fixture).run()
    assert pairs and all(site == ref for site, ref in pairs), pairs
    # RA106 reports each stuck rank's waiting site (from on_wait_begin);
    # its wait-for-cycle finding carries none.
    sites = {f.site for f in world.verifier.findings
             if f.check == check and f.site is not None}
    assert sites and all(f"{fixture}.py" in site for site in sites), sites
    assert sites <= {site for site, _ref in pairs}


def test_waitany_empty_raises_without_any_verifier():
    gen = waitany([])
    with pytest.raises(ValueError, match="waitany needs at least one request"):
        next(gen)


def test_waitall_and_waitany_use_public_result(fast_params):
    """The helpers must go through Request.result, not private state."""
    world = make_world(2, params=fast_params, verify=True)
    seen = {}

    def program(env):
        comm = env.view(world.comm_world)
        if comm.rank == 0:
            reqs = []
            for i in range(2):
                req = yield from comm.isend(1, data=f"m{i}", nbytes=8, tag=i)
                reqs.append(req)
            assert (yield from waitall(reqs)) == [None, None]
            assert (yield from waitall([])) == []
        else:
            reqs = []
            for i in range(2):
                req = yield from comm.irecv(0, tag=i)
                reqs.append(req)
            idx, payload = yield from waitany(reqs)
            results = [None, None]
            results[idx] = payload
            rest_idx = [i for i in range(2) if i != idx]
            rest = yield from waitall([reqs[i] for i in rest_idx])
            for i, val in zip(rest_idx, rest):
                results[i] = val
            assert results == ["m0", "m1"]
            assert [r.result for r in reqs] == results
            seen.update(enumerate(results))

    world.spawn_all(program)
    world.run()
    assert world.verifier.findings == []
    assert set(seen.values()) == {"m0", "m1"}


def test_request_result_property_matches_wait_value(fast_params):
    world = make_world(2, params=fast_params)

    def program(env):
        comm = env.view(world.comm_world)
        if comm.rank == 0:
            yield from comm.send(1, data="payload", nbytes=8)
            return None
        req = yield from comm.irecv(0)
        value = yield from req.wait()
        assert req.result == value == "payload"
        return value

    world.spawn_all(program)
    world.run()
    assert world.results()[1] == "payload"


# -- the verified-kernel suite + timing neutrality -----------------------------


def test_verified_kernel_suite_is_clean():
    from repro.analysis.suite import verify_suite

    results = verify_suite()
    assert len(results) == 7
    dirty = {name: [f.render() for f in fs]
             for name, fs in results.items() if fs}
    assert not dirty, f"verified suite reported findings: {dirty}"


def test_verify_leaves_golden_trace_unchanged():
    """World(verify=True) is timing-passive: bit-for-bit identical trace."""
    from repro.kernels.symmsquarecube import run_ssc

    res = run_ssc(2, 8, "optimized", n_dup=2, ppn=2, iterations=1,
                  trace=True, verify=True)
    expected = json.loads(
        (pathlib.Path(__file__).parent / "data" / "golden_trace_ssc.json")
        .read_text())
    assert res.world.trace.to_jsonable() == expected
    assert res.world.verifier.findings == []


def test_checks_registry_is_consistent():
    for check, (kind, severity, title) in CHECKS.items():
        assert kind in ("runtime", "static", "plan")
        assert severity in ("error", "warning")
        assert title
    assert set(RUNTIME_CHECKS) == {c for c, meta in CHECKS.items()
                                   if meta[0] == "runtime"}
    # ID bands track the kind: RA1xx runtime, RA2xx static lint, RA3xx plan.
    for check, (kind, _severity, _title) in CHECKS.items():
        band = {"1": "runtime", "2": "static", "3": "plan"}[check[2]]
        assert kind == band, check
