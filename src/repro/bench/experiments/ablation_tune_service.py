"""Ablation — the tuning service under concurrent load.

Stress-tests :class:`repro.tune.service.TuningService`, one grid point per
service mechanism:

``stampede``
    Hundreds (quick) to a thousand (full) concurrent ``tune()`` threads
    over at most 8 distinct signatures.  The coalescer must collapse the
    stampede to exactly one search per signature, and the db written
    through the service must be **byte-identical** to
    :func:`repro.tune.service.tune_serial` replaying the same first-miss
    order.

``warm``
    A tuned service takes a second wave of requests: every one must be a
    lock-free cache hit and the simulator must not run at all.

``interpolate``
    After tuning one workload, a request for the same family at ``n``
    within ±5% must resolve through the interpolated warm start: simulator
    cost bounded by the shortlist size, trace entries marked
    ``interpolated``, and bytes equal to the serial twin.

``swr``
    A :class:`~repro.sim.faults.FaultPlan` changes the effective fabric
    constants (:func:`~repro.tune.service.degraded_params`): with
    stale-while-revalidate the service answers from the newest same-workload
    record immediately and commits the re-tuned record in the background.

Every reported value is deterministic — the stampede launches its threads
one at a time behind a closed search gate, polling the service's exact
counters until each request is *registered* (leader in flight or follower
coalesced) before launching the next, so the first-miss order, the
coalesced/hit split, and therefore the db bytes are schedule-independent.
That is what lets the CI gate run this experiment with ``--jobs 2`` and
require byte-identical output.
"""

from __future__ import annotations

import threading
import time

from repro.bench.harness import ExperimentOutput
from repro.util import Table

#: Tuning-search seed — fixed so sweeps are byte-reproducible.
SEED = 0

#: Stampede load: (threads, distinct signatures).  The acceptance gate is
#: ``searches == signatures`` — 1000 clients cost 8 searches.
STAMPEDE_FULL = (1000, 8)
STAMPEDE_QUICK = (200, 4)

#: Warm wave size (second pass over a tuned service).
WARM_FULL = 500
WARM_QUICK = 100

#: The signature family: ("ssc", p, n) workloads, all cheap enough that a
#: full point stays seconds.  Entries beyond the quick signature count are
#: only used in full mode.
FAMILY = (
    ("ssc", 2, 48), ("ssc", 2, 64), ("ssc", 2, 96), ("ssc", 2, 128),
    ("ssc", 3, 48), ("ssc", 3, 96), ("ssc25d", 2, 2, 48),
    ("ssc25d", 2, 2, 96),
)

#: Interpolation probe: tune the base n, then request n scaled by this
#: (within the service's ±10% neighborhood; the ISSUE gate uses ±5%).
INTERP_BASE_N = 64
INTERP_SCALE = 1.05


def _sig(point, *, scale_n: float = 1.0):
    from repro.tune.signature import signature_for_ssc, signature_for_ssc25d

    if point[0] == "ssc":
        _k, p, n = point
        return signature_for_ssc(p, round(n * scale_n))
    _k, q, c, n = point
    return signature_for_ssc25d(q, c, round(n * scale_n))


def _reset_shared_plans() -> None:
    """Zero the shared plan cache before this point's stats are collected.

    Concurrent searches race on plan-cache *misses* (two threads can both
    miss the same key and build twice), so the hit/miss split is the one
    schedule-dependent counter in the process.  Resetting it keeps this
    experiment's ``sim_stats`` — and hence the ``--jobs 2`` byte-identity
    gate — deterministic.  Engine/fabric aggregates are extensive sums of
    per-world counters and stay exact under any interleaving.
    """
    from repro.mpi.collectives.plan import shared_plans

    shared_plans.clear()
    shared_plans.reset()


def _spin(predicate, what: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"stampede setup stalled waiting for {what}")
        time.sleep(0.0005)


def run_coalescing_stampede(threads_n: int, sigs_n: int) -> dict:
    """Gate-orchestrated stampede over ``sigs_n`` signatures, fully pinned.

    ``threads_n`` concurrent ``tune()`` threads are launched one at a time
    behind a closed search gate, each polled until *registered* (leader in
    flight or follower coalesced), then the gate opens and the whole batch
    resolves.  ``tests/test_tune_service.py`` pins its counters at 64
    threads over 4 signatures.
    """
    from repro.tune.db import TuningDB
    from repro.tune.service import TuningService, tune_serial

    sigs = [_sig(pt) for pt in FAMILY[:sigs_n]]
    plan = [sigs[i % sigs_n] for i in range(threads_n)]

    gate = threading.Event()
    svc = TuningService(TuningDB(), seed=SEED, search_gate=gate)
    try:
        results: list = [None] * threads_n
        workers = []
        seen: set[str] = set()
        followers = 0
        for i, sig in enumerate(plan):
            th = threading.Thread(
                target=lambda i=i, sig=sig: results.__setitem__(
                    i, svc.tune(sig)),
                daemon=True)
            th.start()
            workers.append(th)
            # Wait until this request is *registered* before launching the
            # next: the first-miss order and the coalesced count become a
            # pure function of the plan, not of thread scheduling.
            if sig.key in seen:
                followers += 1
                want = followers
                _spin(lambda: svc.stats()["coalesced"] >= want,
                      f"follower {i}")
            else:
                seen.add(sig.key)
                _spin(lambda key=sig.key: key in svc._inflight,
                      f"leader {i}")
        gate.set()
        for th in workers:
            th.join(timeout=120.0)
            if th.is_alive():
                raise TimeoutError("stampede worker did not finish")
        svc.drain()
        cold = svc.stats()
        service_bytes = svc.db.to_json()
    finally:
        svc.close()

    # The serial twin replays the first-miss order (= plan order with
    # duplicates dropped); byte-identical db bytes are the determinism
    # contract the service docstring pins.
    twin = tune_serial(sigs, seed=SEED)
    assert all(r is not None for r in results)
    _reset_shared_plans()
    return {
        "threads": threads_n,
        "signatures": sigs_n,
        "requests": cold["requests"],
        "searches": cold["searches"],
        "coalesced": cold["coalesced"],
        "hits": cold["hits"],
        "simulations": cold["simulations"],
        "records": cold["records"],
        "byte_identical": service_bytes == twin.to_json(),
    }


def _run_stampede(quick: bool) -> dict:
    return run_coalescing_stampede(*(STAMPEDE_QUICK if quick
                                     else STAMPEDE_FULL))


def _run_warm(quick: bool) -> dict:
    from repro.tune.db import TuningDB
    from repro.tune.service import TuningService

    threads_n, sigs_n = STAMPEDE_QUICK if quick else STAMPEDE_FULL
    warm_n = WARM_QUICK if quick else WARM_FULL
    sigs = [_sig(pt) for pt in FAMILY[:sigs_n]]
    svc = TuningService(TuningDB(), seed=SEED)
    try:
        for sig in sigs:  # tune once, serially (deterministic order)
            svc.tune(sig)
        cold = svc.stats()
        plan = [sigs[i % sigs_n] for i in range(warm_n)]
        results: list = [None] * warm_n
        workers = [threading.Thread(
            target=lambda i=i, sig=sig: results.__setitem__(i, svc.tune(sig)),
            daemon=True) for i, sig in enumerate(plan)]
        for th in workers:
            th.start()
        for th in workers:
            th.join(timeout=120.0)
        svc.drain()
        warm = svc.stats()
    finally:
        svc.close()
    assert all(r is not None for r in results)
    _reset_shared_plans()
    return {
        "tuned_signatures": sigs_n,
        "warm_requests": warm_n,
        "warm_hits": warm["hits"] - cold["hits"],
        "warm_searches": warm["searches"] - cold["searches"],
        "warm_simulations": warm["simulations"] - cold["simulations"],
    }


def _run_interpolate(quick: bool) -> dict:
    from repro.tune.db import TuningDB
    from repro.tune.search import DEFAULT_SHORTLIST
    from repro.tune.service import TuningService, tune_serial
    from repro.tune.signature import signature_for_ssc

    base = signature_for_ssc(2, INTERP_BASE_N)
    near = signature_for_ssc(2, round(INTERP_BASE_N * INTERP_SCALE))
    svc = TuningService(TuningDB(), seed=SEED)
    try:
        svc.tune(base)
        cold = svc.stats()
        record = svc.tune(near)
        stats = svc.stats()
        service_bytes = svc.db.to_json()
    finally:
        svc.close()
    twin = tune_serial([base, near], seed=SEED)
    statuses = {t.status for t in record.trace}
    _reset_shared_plans()
    return {
        "base_n": INTERP_BASE_N,
        "near_n": round(INTERP_BASE_N * INTERP_SCALE),
        "shortlist": DEFAULT_SHORTLIST,
        "interpolated": stats["interpolated"] - cold["interpolated"],
        "interp_simulations": stats["simulations"] - cold["simulations"],
        "interp_searches": stats["searches"] - cold["searches"],
        "has_interpolated_status": "interpolated" in statuses,
        "byte_identical": service_bytes == twin.to_json(),
    }


def _run_swr(quick: bool) -> dict:
    from repro.netmodel.params import NetworkParams
    from repro.sim.faults import FaultPlan
    from repro.tune.db import TuningDB
    from repro.tune.service import TuningService, degraded_params
    from repro.tune.signature import signature_for_ssc

    base_params = NetworkParams()
    plan = FaultPlan.random(seed=3, num_ranks=8, num_nodes=8, horizon=1.0,
                            kinds=("link",))
    eff = degraded_params(base_params, plan)
    base = signature_for_ssc(2, 64, params=base_params)
    degraded = signature_for_ssc(2, 64, params=eff)

    svc = TuningService(TuningDB(), seed=SEED, stale_while_revalidate=True)
    try:
        fresh = svc.tune(base, params=base_params)
        stale = svc.tune(degraded, params=eff)  # served instantly from base
        svc.drain()  # background re-search commits the degraded record
        stats = svc.stats()
        refreshed = svc.tune(degraded, params=eff)
    finally:
        svc.close()
    _reset_shared_plans()
    return {
        "fabric_changed": base.key != degraded.key,
        "stale_is_base": stale.signature.key == base.key,
        "stale_served": stats["stale_served"],
        "refreshes": stats["refreshes"],
        "refreshed_is_degraded": refreshed.signature.key == degraded.key,
        "records": stats["records"],
    }


_POINTS = {
    "stampede": _run_stampede,
    "warm": _run_warm,
    "interpolate": _run_interpolate,
    "swr": _run_swr,
}


def grid(quick: bool = False) -> list[tuple]:
    """One point per service mechanism (same grid in both modes)."""
    return [(name,) for name in _POINTS]


def run_point(point: tuple, quick: bool = False) -> dict:
    name = point[0]
    result = _POINTS[name](quick)
    result["point"] = name
    return result


def assemble(results: list[dict], quick: bool = False) -> ExperimentOutput:
    values = {res["point"]: res for res in results}
    st = values["stampede"]
    wm = values["warm"]
    ip = values["interpolate"]
    sw = values["swr"]
    t = Table(
        ["Mechanism", "Load", "Searches", "Amortized", "Sims", "Bytes OK"],
        title="Ablation: tuning service under concurrent load",
    )
    t.add_row(["stampede (coalescing)",
               f"{st['threads']} threads / {st['signatures']} sigs",
               st["searches"], f"coalesced {st['coalesced']}",
               st["simulations"], st["byte_identical"]])
    t.add_row(["warm cache", f"{wm['warm_requests']} requests",
               wm["warm_searches"], f"hits {wm['warm_hits']}",
               wm["warm_simulations"], True])
    t.add_row(["interpolation", f"n={ip['base_n']} -> n={ip['near_n']}",
               ip["interp_searches"],
               f"interpolated {ip['interpolated']}",
               ip["interp_simulations"], ip["byte_identical"]])
    t.add_row(["stale-while-revalidate", "fault-plan fabric change",
               sw["refreshes"], f"stale served {sw['stale_served']}",
               "-", True])
    return ExperimentOutput(
        name="ablation-tune-service",
        tables=[t],
        values=values,
        notes=(
            "The stampede registers requests one at a time behind a closed\n"
            "search gate, so the first-miss order (and the db bytes) are\n"
            "schedule-independent; 'Bytes OK' compares the service db\n"
            "against tune_serial() replaying that order.  See docs/tuning.md."
        ),
    )


def run(quick: bool = False) -> ExperimentOutput:
    return assemble([run_point(pt, quick=quick) for pt in grid(quick)],
                    quick=quick)


def check(output: ExperimentOutput) -> None:
    """The service acceptance gates (ISSUE 9)."""
    st = output.values["stampede"]
    assert st["requests"] == st["threads"], st
    # Coalescing: N concurrent requests over S signatures cost S searches.
    assert st["searches"] == st["signatures"] <= 8, (
        f"stampede ran {st['searches']} searches for "
        f"{st['signatures']} signatures"
    )
    assert st["coalesced"] == st["threads"] - st["signatures"], st
    assert st["coalesced"] >= 1, "no request was coalesced"
    assert st["records"] == st["signatures"], st
    assert st["byte_identical"], (
        "stampede db bytes differ from serial tuning — the determinism "
        "contract is broken"
    )
    wm = output.values["warm"]
    assert wm["warm_hits"] == wm["warm_requests"], wm
    assert wm["warm_searches"] == 0, wm
    # The warm-start-zero-sims gate: a tuned service never re-simulates.
    assert wm["warm_simulations"] == 0, (
        f"warm repeat pass ran {wm['warm_simulations']} simulations"
    )
    ip = output.values["interpolate"]
    # Interpolated resolutions are counted apart from full searches: the
    # near-n request must cost zero fresh searches.
    assert ip["interpolated"] == 1 and ip["interp_searches"] == 0, ip
    assert ip["has_interpolated_status"], ip
    # Interpolation: simulator cost bounded by the shortlist size.
    assert 1 <= ip["interp_simulations"] <= ip["shortlist"], (
        f"interpolated request simulated {ip['interp_simulations']} "
        f"candidates (shortlist {ip['shortlist']})"
    )
    assert ip["byte_identical"], "interpolated db bytes differ from serial"
    sw = output.values["swr"]
    assert sw["fabric_changed"] and sw["stale_is_base"], sw
    assert sw["stale_served"] == 1 and sw["refreshes"] == 1, sw
    assert sw["refreshed_is_degraded"] and sw["records"] == 2, sw
