"""tune_replay: the tool path - autotuner, record/replay, calibration, service.

``sim.replay``, ``tune.search``, ``tune.service`` and
``analytics.calibrate`` do most of the work; rank processes and MPI only
run inside the searches' simulations.  It is the only workload where
array-backed replay (ROADMAP item 2) or a wider replay envelope (item 6)
can show, and its ``peak_rss_mb`` is where recordings' memory shows.

The seed draws the perturbation factors of the warm re-tunes, the
replay-grid points, the injected calibration constants and the near-miss
``n`` values.  Re-tune factors stay within 2% of fixed anchors so the
amount of work (which replays stay inside the validity envelope) does not
swing with the seed.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

import numpy as np

from perfbench.harness import Op, Out, Script, require

WHY = ("tuner cold/warm searches, replay grids, calibration fits, "
       "recording/db I/O and the tuning service: replay and tune layers "
       "dominate, recordings set peak RSS")

_N45, _N70 = 5330, 7645             # 1hsg_45 / 1hsg_70
_GRID_POINTS = 31
#: Six 31-point batches = the 186 replays of one calibration fit.  Four sit
#: on the 3^3 recording on purpose: they cost the same (~185 ms) and are the
#: steadiest ops of the script, so op_p80_ms lands inside their cluster
#: instead of on whichever single op happens to hold rank 40.
_GRIDS = ("p2.a", "p3.a", "p3.b", "p3.c", "p3.d", "p4.a")
_LOOKUPS = 2000                     # per client thread per warm batch
_CLIENTS = min(2, os.cpu_count() or 1)

#: (name, kernel, mesh args, n, kind suffix): the eight cold signatures.
_COLD = (
    ("ssc.p2.n5330", "ssc", (2,), _N45, "_small"),
    ("ssc.p2.n6895", "ssc", (2,), 6895, "_small"),
    ("ssc.p2.n7645", "ssc", (2,), _N70, "_small"),
    ("ssc.p3.n5330", "ssc", (3,), _N45, "_small"),
    ("ssc.p4.n5330", "ssc", (4,), _N45, ""),
    ("ssc25d.q2c2.n7645", "ssc25d", (2, 2), _N70, "_small"),
    ("ssc25d.q4c2.n7645", "ssc25d", (4, 2), _N70, "_small"),
    ("summa.p4.n2048", "summa", (4,), 2048, "_small"),
)
#: Warm re-tunes of the three largest: (cold name, perturbed field, anchor).
_RETUNE = (
    ("ssc.p4.n5330", "alpha", 1.25),
    ("ssc.p3.n5330", "nic_bandwidth", 0.9),
    ("ssc25d.q2c2.n7645", "alpha", 0.8),
)
#: Service signatures (distinct families or > 10% apart in n, so none is an
#: interpolation neighbor of another).
_SERVICE = (
    ("ssc.p2.n5330", "ssc", (2,), _N45),
    ("ssc.p2.n7645", "ssc", (2,), _N70),
    ("ssc25d.q2c2.n5330", "ssc25d", (2, 2), _N45),
    ("ssc25d.q2c2.n7645", "ssc25d", (2, 2), _N70),
)


def _signature(kernel, mesh, n, params=None):
    from repro.tune import (signature_for_ssc, signature_for_ssc25d,
                            signature_for_summa)

    make = {"ssc": signature_for_ssc, "ssc25d": signature_for_ssc25d,
            "summa": signature_for_summa}[kernel]
    return make(*mesh, n, params=params)


def fixtures(seed: int, smoke: bool, workdir):
    from repro import NetworkParams

    rng = np.random.default_rng(seed)
    base = NetworkParams()

    def jitter():
        return 1.0 + float(rng.uniform(-0.02, 0.02))

    retune = {}
    for name, field, anchor in _RETUNE:
        retune[name] = base.replace(
            **{field: getattr(base, field) * anchor * jitter()})
    grids = {}
    for label in _GRIDS:
        factors = np.exp(rng.uniform(-np.log(2.0), np.log(2.0),
                                     size=(_GRID_POINTS, 2)))
        grids[label] = [{"alpha": base.alpha * float(fa),
                         "nic_bandwidth": base.nic_bandwidth * float(fb)}
                        for fa, fb in factors]
    fit_factors = {"alpha": float(rng.uniform(1.5, 2.0)),
                   "nic_bandwidth": float(rng.uniform(0.6, 0.8))}
    near = {}
    for name, kernel, mesh, n in _SERVICE:
        delta = float(rng.uniform(0.01, 0.05)) * (1 if rng.random() < 0.5 else -1)
        near[name] = round(n * (1.0 + delta))
    return {"smoke": smoke, "workdir": workdir, "base": base,
            "retune": retune, "grids": grids, "fit_factors": fit_factors,
            "near": near}


def warmup(fx) -> None:
    from repro import run_ssc
    from repro.analytics import calibrate_synthetic
    from repro.sim.replay import (dump_recording, load_recording,
                                  replay_kernel_grid)
    from repro.tune import Tuner, TuningDB, TuningService, tune_serial

    tuner = Tuner(replay="on")
    tuner.autotune_ssc(2, 48)
    tuner.autotune_ssc25d(2, 2, 48)
    tuner.autotune_summa(2, 64)
    tuner.autotune_ssc(2, 48, params=fx["base"].replace(alpha=2e-6))
    rec = run_ssc(2, 48, "optimized", n_dup=1, record=True).recording
    replay_kernel_grid(rec, [{"alpha": 2e-6}])
    path = os.path.join(fx["workdir"], "warmup.json")
    dump_recording(rec, path)
    load_recording(path)
    calibrate_synthetic(workloads=((2, 48), (2, 96)))
    db_path = os.path.join(fx["workdir"], "warmup-db.json")
    svc = TuningService(db_path)
    try:
        svc.tune(_signature("ssc", (2,), 48))
        svc.tune(_signature("ssc", (2,), 50))
        svc.save()
    finally:
        svc.close()
    tune_serial([_signature("ssc", (2,), 48)])
    TuningDB(db_path)


class _State:
    """Everything one pass builds and later ops of the same pass reuse."""

    def __init__(self, fx) -> None:
        from repro.tune import Tuner

        self.dir = tempfile.mkdtemp(prefix="pass", dir=fx["workdir"])
        self.tuner = Tuner(replay="on")
        self.recordings: dict = {}       # "p2"/"p3"/"p4" -> GraphRecorder
        self.service = None
        self.reopened = None
        self.first_misses: list = []     # service requests in first-miss order
        self.attempts = 0                # re-tune scorings with a cached graph
        self.invalid = 0                 # ... that fell back to simulation


def script(fx) -> Script:
    from repro import run_ssc
    from repro.analytics import (CalibrationObservation, calibrate_synthetic,
                                 fit_fabric_constants)
    from repro.sim.replay import (dump_recording, load_recording,
                                  replay_kernel, replay_kernel_grid)
    from repro.tune import (GraphStore, TuningDB, TuningService,
                            simulate_candidate, tune_serial)

    smoke = fx["smoke"]
    base = fx["base"]
    st = _State(fx)
    ops: list[Op] = []

    def tune(sig_args, params=None):
        kernel, mesh, n = sig_args
        fn = getattr(st.tuner, f"autotune_{kernel}")
        return fn(*mesh, n, params=params)

    def check_record(out: Out) -> None:
        rec = out.value
        require(rec.best_time <= rec.default_time,
                f"tuned {rec.best_time} slower than default {rec.default_time}")

    # -- cold searches -----------------------------------------------------
    cold = {c[0]: c for c in _COLD}
    cold_names = (("ssc.p2.n5330", "ssc25d.q2c2.n7645") if smoke
                  else tuple(cold))
    for name in cold_names:
        _n, kernel, mesh, n, suffix = cold[name]

        def run(args=(kernel, mesh, n)):
            rec = tune(args)
            return Out(rec, (rec.best_time, rec.default_time))
        kind = "tune.search_cold" + ("_small" if smoke else suffix)
        ops.append(Op(f"cold.{name}", kind, run, check_record, pinned=True))

    # -- warm re-tunes under perturbed replay-safe constants ---------------
    for name, _field, _anchor in _RETUNE:
        if name not in cold_names:
            continue
        _n, kernel, mesh, n, suffix = cold[name]
        params = fx["retune"][name]

        def run(args=(kernel, mesh, n), params=params):
            sig = _signature(*args, params=params)
            cached = {ck for wl, ck in st.tuner.graph_cache
                      if wl == sig.workload_key}
            replays = st.tuner.replays
            rec = tune(args, params=params)
            scored = [t for t in rec.trace
                      if t.sim_time is not None or t.status == "pruned-deadline"]
            tried = sum(t.candidate.key in cached for t in scored)
            st.attempts += tried
            st.invalid += tried - (st.tuner.replays - replays)
            return Out((sig, rec, params), (rec.best_time, rec.default_time))

        def check(out: Out) -> None:
            sig, rec, params = out.value
            check_record(Out(rec))
            for entry in rec.trace:
                if entry.status != "replayed":
                    continue
                kernel_time, _world = simulate_candidate(
                    sig, entry.candidate, params)
                require(kernel_time == entry.sim_time,
                        f"replayed {entry.candidate.key}: {entry.sim_time!r} "
                        f"!= simulated {kernel_time!r}")
        kind = "tune.search_retune" + ("_small" if smoke else suffix)
        ops.append(Op(f"retune.{name}", kind, run, check))

    # -- recordings (N_DUP=1: valid under every replay-safe perturbation) --
    def record(label, p, algs):
        def run():
            runs = [run_ssc(p, _N45, alg, n_dup=1, record=True) for alg in algs]
            st.recordings[label] = runs[-1].recording
            return Out(runs, tuple(r.elapsed for r in runs))

        def check(out: Out) -> None:
            for res in out.value:
                rec = res.recording
                require(rec is not None and rec.valid, "recording invalid")
                elapsed, _world = replay_kernel(rec)
                require(elapsed == res.elapsed,
                        "replay at the recorded constants drifted")
        ops.append(Op(f"record.{label}", "sim.replay.record", run, check,
                      pinned=True))

    # One 2^3 recording is ~3 ms: the p2 op records all three algorithms.
    record("p2", 2, ("original", "baseline", "optimized"))
    if not smoke:
        record("p3", 3, ("optimized",))
        record("p4", 4, ("optimized",))
        record("p4.baseline", 4, ("baseline",))

    # -- replay grids: 186 points in six 31-point batches ------------------
    for label in _GRIDS[:1] if smoke else _GRIDS:
        def run(p=int(label[1]), points=fx["grids"][label]):
            times = replay_kernel_grid(st.recordings[f"p{p}"], points)
            return Out((p, points, times), tuple(times))

        def check(out: Out) -> None:
            p, points, times = out.value
            for idx in (0, len(points) - 1):        # spot-check by simulation
                sim = run_ssc(p, _N45, "optimized", n_dup=1,
                              params=base.replace(**points[idx])).elapsed
                require(sim == times[idx],
                        f"grid point {idx}: replay {times[idx]!r} != {sim!r}")
        ops.append(Op(f"grid.{label}", "sim.replay.replay_grid", run, check))

    # -- calibration fits --------------------------------------------------
    def check_fit(out: Out) -> None:
        require(out.value <= 1e-6,
                f"fit missed injected constants by {out.value:.3g}")

    def fit_synthetic():
        return Out(calibrate_synthetic(base=base, factors=fx["fit_factors"]))

    def check_synthetic(out: Out) -> None:
        # calibrate_synthetic stops at its own 1e-6 *residual* tolerance,
        # which leaves the constants a few 1e-6 off; fit.paper below asks
        # for 1e-9 residuals and is held to 1e-6 on the constants.
        fit = out.value["fit"]
        require(fit["converged"] and fit["max_residual"] <= 1e-6
                and out.value["max_recovery_rel_error"] <= 1e-4,
                f"synthetic fit off: residual {fit['max_residual']:.3g}, "
                f"constants {out.value['max_recovery_rel_error']:.3g}")
    ops.append(Op("fit.synthetic", "analytics.fit", fit_synthetic,
                  check_synthetic))

    def fit_paper():
        truth = base.replace(**{f: getattr(base, f) * k
                                for f, k in fx["fit_factors"].items()})
        obs = []
        for p in (2, 3):
            meas = run_ssc(p, _N45, "optimized", n_dup=1, params=truth)
            obs.append(CalibrationObservation(st.recordings[f"p{p}"],
                                              meas.elapsed, label=f"p{p}"))
        fit = fit_fabric_constants(obs, tuple(fx["fit_factors"]), base=base,
                                   tolerance=1e-9)
        err = max(abs(fit.fitted[f] / getattr(truth, f) - 1.0)
                  for f in fit.fitted)
        return Out(err)
    if not smoke:
        ops.append(Op("fit.paper", "analytics.fit", fit_paper, check_fit))

    # -- recording / graph store / tuning db I/O ---------------------------
    def dump_load(label):
        def run():
            path = os.path.join(st.dir, f"rec-{label}.json")
            dump_recording(st.recordings[label], path)
            return Out((label, load_recording(path)))

        def check(out: Out) -> None:
            label, loaded = out.value
            require(replay_kernel(loaded) == replay_kernel(st.recordings[label]),
                    "loaded recording replays differently")
        ops.append(Op(f"dumpload.{label}", "sim.replay.dump_load", run, check))

    for label in ("p2",) if smoke else ("p3", "p4", "p4.baseline"):
        dump_load(label)

    def store_io():
        """GraphStore and TuningDB save + load of what the tuner holds (the
        4^3 workload's five graphs alone cost ~3.5 s of JSON: left out)."""
        store = GraphStore(os.path.join(st.dir, "graphs"))
        for wl in sorted({wl for wl, _ck in st.tuner.graph_cache
                          if ":r64:" not in wl}):
            graphs = {ck: g for (w, ck), g in st.tuner.graph_cache.items()
                      if w == wl}
            store.save(wl, graphs)
            require(set(store.load(wl))
                    == {ck for ck, g in graphs.items() if g.valid},
                    f"graph store lost graphs of {wl}")
        path = os.path.join(st.dir, "tuner-db.json")
        st.tuner.db.save(path)
        return Out(TuningDB(path).to_json())
    ops.append(Op("store.save_load", "tune.graphstore_io", store_io,
                  lambda out: require(out.value == st.tuner.db.to_json(),
                                      "tuning db did not round-trip")))

    # -- the tuning service ------------------------------------------------
    gate = threading.Event()
    service = [s for s in _SERVICE if not smoke or s[0] == "ssc.p2.n5330"]

    def clients(fn):
        """``fn(i)`` on each client thread, not started; ``finish`` joins them
        and re-raises, in the op's own thread, whatever a client raised."""
        errors: list = []

        def body(i):
            try:
                fn(i)
            except Exception as exc:    # re-raised by finish()
                errors.append(exc)
        wrap = fx.get("wrap_thread", lambda f: f)     # the traced pass's hook
        threads = [threading.Thread(target=wrap(body), args=(i,))
                   for i in range(_CLIENTS)]

        def finish():
            for th in threads:
                th.join(timeout=120.0)
                require(not th.is_alive(), "service client did not finish")
            if errors:
                raise errors[0]
        return threads, finish

    def spin(predicate):
        deadline = time.monotonic() + 60.0
        while not predicate():
            require(time.monotonic() < deadline, "service wave stalled")
            time.sleep(0.0002)

    def coalesce(name, kernel, mesh, n):
        def run():
            if st.service is None:
                st.service = TuningService(
                    os.path.join(st.dir, "service-db.json"), search_gate=gate)
            svc = st.service
            sig = _signature(kernel, mesh, n)
            st.first_misses.append(sig)
            gate.clear()
            before = svc.stats()
            got: list = [None] * _CLIENTS
            threads, finish = clients(
                lambda i: got.__setitem__(i, svc.tune(sig)))
            # Register the leader, then each follower, before the gate
            # opens: one search and CLIENTS-1 coalesced joins, exactly.
            for i, th in enumerate(threads):
                th.start()
                if i == 0:
                    spin(lambda: svc.stats()["inflight"] == 1)
                else:
                    spin(lambda: svc.stats()["coalesced"]
                         == before["coalesced"] + i)
            gate.set()
            finish()
            svc.drain()
            rec = got[0]
            require(all(g is rec for g in got), "coalesced callers diverged")
            return Out(rec, (rec.best_time, rec.default_time))
        ops.append(Op(f"service.coalesce.{name}", "tune.service.coalesce",
                      run, check_record, pinned=True))

    for entry in service:
        coalesce(*entry)

    def interpolate(name, kernel, mesh, n):
        def run():
            sig = _signature(kernel, mesh, fx["near"][name])
            st.first_misses.append(sig)
            before = st.service.stats()["interpolated"]
            rec = st.service.tune(sig)
            require(st.service.stats()["interpolated"] == before + 1,
                    f"{sig.key} was not served by interpolation")
            return Out(rec, (rec.best_time, rec.default_time))
        ops.append(Op(f"service.interpolate.{name}",
                      "tune.service.interpolate", run, check_record))

    for entry in service:
        interpolate(*entry)

    sigs = [_signature(k, m, n) for _name, k, m, n in service]

    def warm_batch():
        svc = st.service
        before = svc.stats()

        def lookups(_i):
            for j in range(_LOOKUPS):
                svc.tune(sigs[j % len(sigs)])
        threads, finish = clients(lookups)
        for th in threads:
            th.start()
        finish()
        after = svc.stats()
        require(after["hits"] - before["hits"] == _CLIENTS * _LOOKUPS
                and after["searches"] == before["searches"],
                "warm batch was not all cache hits")
        return Out(after["hits"])
    for i in range(2 if smoke else 14):
        ops.append(Op(f"service.warm.{i:02d}", "tune.service.warm_batch",
                      warm_batch))

    def save_reopen():
        """Save the service db, then a fresh service on it re-tunes under new
        constants: its recordings come from the graph store, not simulation."""
        saved = st.service.save().read_text()
        st.reopened = TuningService(os.path.join(st.dir, "service-db.json"))
        params = fx["retune"]["ssc.p4.n5330"]
        _name, kernel, mesh, n = service[0]
        rec = st.reopened.tune(_signature(kernel, mesh, n, params=params),
                               params=params)
        require(st.reopened.stats()["replay_loads"] > 0,
                "no recording came from the graph store")
        return Out((saved, rec), (rec.best_time, rec.default_time))

    def check_twin(out: Out) -> None:
        saved, rec = out.value
        check_record(Out(rec))
        twin = tune_serial(st.first_misses, seed=0)
        require(saved == twin.to_json(),
                "service db bytes differ from the tune_serial twin")
    ops.append(Op("service.save_reopen", "tune.graphstore_io", save_reopen,
                  check_twin))

    def counters() -> dict:
        services = [s for s in (st.service, st.reopened) if s is not None]
        stats = [s.stats() for s in services]
        for svc in services:
            svc.close()
        tuners = [st.tuner] + [s.tuner for s in services]
        graphs = [g for t in tuners for g in t.graph_cache.values()]
        graphs += list(st.recordings.values())
        return {
            "sim.replay.graph_nodes": sum(len(g.kinds) for g in graphs),
            "sim.replay.graph_flows": sum(len(g.flows) for g in graphs),
            "sim.replay.attempts": st.attempts,
            "sim.replay.invalid": st.invalid,
            "tune.search.simulations": sum(t.simulations for t in tuners),
            "tune.search.replays": sum(t.replays for t in tuners),
            "tune.search.replay_aborts": sum(t.replay_aborts for t in tuners),
            "tune.service.requests": sum(s["requests"] for s in stats),
            "tune.service.hits": sum(s["hits"] for s in stats),
            "tune.service.coalesced": sum(s["coalesced"] for s in stats),
            "tune.service.searches": sum(s["searches"] for s in stats),
            "tune.service.interpolated": sum(s["interpolated"] for s in stats),
            "tune.service.graph_loads": sum(s["replay_loads"] for s in stats),
        }

    return Script(ops, counters, full_gc=False)
