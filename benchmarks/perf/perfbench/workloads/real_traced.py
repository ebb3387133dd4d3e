"""real_traced: real payloads and every optional hook switched on.

Real-mode kernels checked against numpy, traced runs feeding
``repro.analytics``, runtime- and plan-verified runs, fault-injected runs
and the static analysis passes.  numpy GEMM, the executor's payload /
zero-copy path, ``sim.trace``, ``sim.faults``, ``analysis`` and
``analytics`` work here and are dormant in the other three workloads: this
is the guard that hooks (and the coming ``repro.obs`` spine) stay free
when off and affordable when on.

The seed draws every matrix, right-hand side and the two random fault
plans.  Modeled ops (traced, verified, ladder faults) are seed-independent
and pinned.
"""

from __future__ import annotations

import pathlib

import numpy as np

from perfbench.harness import Op, Out, Script, require

WHY = ("real-mode kernels vs numpy plus traced, verified, faulted runs and "
       "static analysis: numpy, payload path and every hook layer are live")

_N70 = 7645
_PREFAULT_BYTES = 768 << 20


def _square(rng, n):
    return rng.random((n, n)) - 0.5     # uniform: half the set-up cost of normal


def _sym(rng, n):
    m = _square(rng, n)
    return (m + m.T) / 2


def fixtures(seed: int, smoke: bool, workdir):
    from repro import synthetic_fock

    rng = np.random.default_rng(seed)
    if not smoke:
        # Touch the heap the real-mode ops will need once, here: first-touch
        # page faults are the host's cost, not the program's, and left in
        # the timed pass they land on whichever op grows the heap first.
        np.ones(_PREFAULT_BYTES // 8)
    sizes = (128,) if smoke else (768, 1024, 1536)
    fx = {
        "smoke": smoke, "corrupt": False,
        "sym": {n: _sym(rng, n) for n in sizes + (() if smoke else (2048,))},
        "a": {n: _square(rng, n) for n in sizes},
        "b": {n: _square(rng, n) for n in sizes},
        "rhs": {n: rng.standard_normal(n) for n in (64, 256)},
        "block_rhs": rng.standard_normal((128, 4)),
        "fault_seeds": [int(s) for s in rng.integers(1 << 30, size=2)],
    }
    focks = ((64, 16),) if smoke else ((384, 96), (768, 192))
    fx["fock"] = {n: (synthetic_fock(n, nocc, seed=int(rng.integers(1 << 30))),
                      nocc) for n, nocc in focks}
    return fx


def warmup(fx) -> None:
    import repro
    from repro import (run_cg, run_distributed_purification, run_mm25d,
                       run_mm3d, run_ssc, run_ssc25d, run_summa,
                       synthetic_fock)
    from repro.analysis import lint_source
    from repro.analysis.schedule import check_plans
    from repro.analytics import (build_link_timelines, overlap_report_for_world,
                                 rank_breakdown)
    from repro.sim import FaultPlan, MessageDrop
    from repro.tune import signature_for_ssc

    rng = np.random.default_rng(0)
    d, a = _sym(rng, 16), _square(rng, 16)
    traced = run_ssc(2, 16, "optimized", d=d, n_dup=2, trace=True, verify=True,
                     verify_plans=True)
    overlap_report_for_world(traced.world)
    build_link_timelines(traced.world.fabric.flow_records())
    rank_breakdown(traced.world.trace)
    run_ssc25d(2, 2, 16, d=d, n_dup=2)
    run_summa(2, 16, a, a, algorithm="colored")
    run_mm3d(2, 16, a, a)
    run_mm25d(2, 2, 16, a, a)
    run_distributed_purification(2, 16, "optimized", synthetic_fock(16, 4), 4,
                                 iterations=3)
    run_cg(2, 16, "pipelined", b=rng.standard_normal(16), maxiter=4)
    run_ssc(2, 16, "optimized", n_dup=2,
            faults=FaultPlan([MessageDrop(probability=0.1, max_drops=2)]))
    check_plans([signature_for_ssc(2, 16)])
    lint_source(pathlib.Path(repro.__file__).read_text())


def _laplacian_solve(b):
    n = len(b)
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return np.linalg.solve(a, b)


def script(fx) -> Script:
    import repro
    from repro import (run_cg, run_distributed_purification, run_matvec,
                       run_mm25d, run_mm3d, run_ssc, run_ssc25d, run_summa)
    from repro.analysis import lint_paths
    from repro.analysis.schedule import check_plans, reset_verified_cache
    from repro.analytics import (build_link_timelines, find_last_active,
                                 overlap_report_for_world, rank_breakdown)
    from repro.purify import density_from_eigh
    from repro.sim import (FaultPlan, LinkDegradation, MessageDrop, NicJitter,
                           StragglerSlowdown)
    from repro.solvers import run_block_cg
    from repro.tune import (signature_for_ssc, signature_for_ssc25d,
                            signature_for_summa)

    smoke = fx["smoke"]
    # The test hook: a deliberately wrong reference must fail the op.
    bias = 1.0 if fx["corrupt"] else 0.0
    ops: list[Op] = []
    worlds: dict = {}

    def close(got, want, what):
        require(np.allclose(got, want + bias), f"{what} differs from numpy")

    # -- real-mode kernels, checked against numpy --------------------------
    def real_ssc(name, fn, n):
        d = fx["sym"][n]

        def check(out: Out) -> None:
            d2 = d @ d
            close(out.value.d2, d2, f"{name}: D^2")
            close(out.value.d3, d2 @ d, f"{name}: D^3")
        ops.append(Op(name, "kernels.real_ssc",
                      lambda: Out(fn(d)), check))

    def real_mm(name, fn, n):
        a, b = fx["a"][n], fx["b"][n]
        ops.append(Op(name, "dense.real_mm", lambda: Out(fn(a, b)),
                      lambda out: close(out.value.c, a @ b, name)))

    if smoke:
        real_ssc("ssc.p2.n128", lambda d: run_ssc(2, 128, "optimized", d=d,
                                                   n_dup=2), 128)
        real_ssc("ssc25d.q2c2.n128",
                 lambda d: run_ssc25d(2, 2, 128, d=d, n_dup=2), 128)
        real_mm("summa.p2.n128.colored",
                lambda a, b: run_summa(2, 128, a, b, algorithm="colored"), 128)
        real_mm("mm3d.p2.n128", lambda a, b: run_mm3d(2, 128, a, b), 128)
    else:
        for alg, nd in (("original", 1), ("baseline", 1), ("optimized", 4)):
            real_ssc(f"ssc.p2.n1536.{alg}",
                     lambda d, alg=alg, nd=nd: run_ssc(2, 1536, alg, d=d,
                                                       n_dup=nd), 1536)
        real_ssc("ssc.p2.n2048.optimized",
                 lambda d: run_ssc(2, 2048, "optimized", d=d, n_dup=4), 2048)
        real_ssc("ssc.p3.n768.optimized",
                 lambda d: run_ssc(3, 768, "optimized", d=d, n_dup=2), 768)
        real_ssc("ssc.p4.n1024.optimized",
                 lambda d: run_ssc(4, 1024, "optimized", d=d, n_dup=4,
                                   ppn=4), 1024)
        real_ssc("ssc25d.q2c2.n1536",
                 lambda d: run_ssc25d(2, 2, 1536, d=d, n_dup=2), 1536)
        real_ssc("ssc25d.q4c2.n1024",
                 lambda d: run_ssc25d(4, 2, 1024, d=d, n_dup=4), 1024)
        for p, n in ((2, 1536), (4, 1024)):
            for alg in ("plain", "streaming", "colored"):
                real_mm(f"summa.p{p}.n{n}.{alg}",
                        lambda a, b, p=p, n=n, alg=alg: run_summa(
                            p, n, a, b, algorithm=alg), n)
        real_mm("mm3d.p2.n1536", lambda a, b: run_mm3d(2, 1536, a, b), 1536)
        real_mm("mm3d.p3.n768", lambda a, b: run_mm3d(3, 768, a, b), 768)
        real_mm("mm25d.q2c2.n1536",
                lambda a, b: run_mm25d(2, 2, 1536, a, b), 1536)
        real_mm("mm25d.q4c2.n1024",
                lambda a, b: run_mm25d(4, 2, 1024, a, b), 1024)

    for n, (f, nocc) in fx["fock"].items():
        def run(n=n, f=f, nocc=nocc):
            return Out(run_distributed_purification(
                2, n, "optimized", f, nocc, n_dup=2, iterations=60, tol=1e-10))

        def check(out: Out, f=f, nocc=nocc) -> None:
            require(out.value.converged, "purification did not converge")
            err = np.abs(out.value.d - (density_from_eigh(f, nocc) + bias)).max()
            require(err < 1e-6, f"density off by {err:.3g}")
        ops.append(Op(f"purify.p2.n{n}", "apps.real_purify", run, check))

    def real_cg(name, fn, b):
        def check(out: Out) -> None:
            want = (np.column_stack([_laplacian_solve(c) for c in b.T])
                    if b.ndim == 2 else _laplacian_solve(b))
            scale = np.abs(want).max()
            require(np.allclose(out.value.x, want + bias, rtol=1e-6,
                                atol=1e-6 * scale), f"{name}: wrong solution")
        ops.append(Op(name, "apps.real_cg", lambda: Out(fn()), check))

    if smoke:
        real_cg("cg.r4.n64", lambda: run_cg(4, 64, "pipelined", b=fx["rhs"][64],
                                            tol=1e-12, maxiter=200),
                fx["rhs"][64])
    else:
        # The 1D Laplacian needs ~n iterations, each a full collective
        # round: n stays small so the solves fit the pass budget.
        for ranks, variant in ((8, "classic"), (8, "pipelined"),
                               (16, "classic")):
            real_cg(f"cg.r{ranks}.n256.{variant}",
                    lambda ranks=ranks, v=variant: run_cg(
                        ranks, 256, v, b=fx["rhs"][256], tol=1e-12,
                        maxiter=1024), fx["rhs"][256])
        real_cg("bcg.r8.n128.s4",
                lambda: run_block_cg(8, 128, 4, "classic", b=fx["block_rhs"],
                                     tol=1e-12, maxiter=512), fx["block_rhs"])

    # -- traced runs and the analytics they feed ---------------------------
    def traced(name, fn):
        def run():
            res = fn()
            worlds[name] = res.world
            return Out(res, (res.elapsed,))
        ops.append(Op(f"traced.{name}", "kernels.traced_run", run,
                      lambda out: require(len(out.value.world.trace.records) > 0,
                                          "trace is empty"), pinned=True))

        def overlap():
            rep = overlap_report_for_world(worlds[name])
            return Out(rep, (rep.horizon, rep.comm_comm_overlap_time))
        ops.append(Op(f"overlap.{name}", "analytics.overlap_report", overlap,
                      lambda out: require(
                          0.0 <= out.value.comm_comm_overlap_fraction <= 1.0,
                          "overlap fraction out of range"), pinned=True))

        def timeline():
            world = worlds.pop(name)        # last user: let the trace go
            tls = build_link_timelines(world.fabric.flow_records())
            _key, last = find_last_active(tls)
            rank_breakdown(world.trace)
            return Out(tls, (last, sum(t.busy_time for t in tls.values())))
        ops.append(Op(f"timeline.{name}", "analytics.timeline", timeline,
                      lambda out: require(len(out.value) > 0, "no link timelines"),
                      pinned=True))

    if smoke:
        traced("summa.p4.colored", lambda: run_summa(
            4, 2048, algorithm="colored", colors=4, depth=4, trace=True))
    else:
        traced("summa.p8.n8192.colored", lambda: run_summa(
            8, 8192, algorithm="colored", colors=4, depth=4, trace=True))
        traced("summa.p8.n8192.plain", lambda: run_summa(
            8, 8192, algorithm="plain", trace=True))
        traced("ssc.p4.n7645.optimized", lambda: run_ssc(
            4, _N70, "optimized", n_dup=4, trace=True))
        traced("ssc.p6.n7645.ppn4", lambda: run_ssc(
            6, _N70, "optimized", n_dup=1, ppn=4, trace=True))
        traced("matvec.p8.overlapped", lambda: run_matvec(
            8, 8192, overlapped=True, n_dup=4, trace=True))

    # -- verified runs -----------------------------------------------------
    def verified(name, fn):
        def run():
            reset_verified_cache()      # every op proves its plans afresh
            res = fn()
            return Out(res, tuple(res.times))
        ops.append(Op(f"verified.{name}", "kernels.verified_run", run,
                      pinned=True))

    if smoke:
        verified("ssc.p2", lambda: run_ssc(2, 256, "optimized", n_dup=2,
                                           verify=True, verify_plans=True))
    else:
        for alg, nd in (("original", 1), ("baseline", 1), ("optimized", 4)):
            verified(f"ssc.p4.{alg}.verify", lambda alg=alg, nd=nd: run_ssc(
                4, _N70, alg, n_dup=nd, verify=True))
        verified("ssc.p4.optimized.verify_plans", lambda: run_ssc(
            4, _N70, "optimized", n_dup=4, verify_plans=True))
        verified("ssc.p5.ppn2.both", lambda: run_ssc(
            5, _N70, "optimized", n_dup=4, ppn=2, verify=True,
            verify_plans=True))
        verified("ssc25d.q8c2.both", lambda: run_ssc25d(
            8, 2, _N70, n_dup=4, ppn=2, verify=True, verify_plans=True))

    # -- fault-injected runs (the ablation-faults ladder + two random plans)
    forever = dict(t_start=0.0, t_end=1e9)
    ladder = {
        "degraded-link": FaultPlan([LinkDegradation(node=0, factor=0.4,
                                                    **forever)]),
        "straggler": FaultPlan([StragglerSlowdown(rank=32, factor=2.5,
                                                  **forever)]),
        "jitter-drops": FaultPlan([
            NicJitter(node=0, max_extra_latency=10e-6, **forever),
            MessageDrop(probability=0.1, max_drops=8)], seed=11),
        "chaos": FaultPlan([
            LinkDegradation(node=1, t_start=0.01, t_end=1e9, factor=0.4),
            StragglerSlowdown(rank=3, factor=2.0, **forever),
            NicJitter(node=0, max_extra_latency=10e-6, **forever),
            MessageDrop(probability=0.1, max_drops=8)], seed=2019),
    }

    def faulted(name, plan, pinned):
        def run():
            plan.reset()
            res = run_ssc(2 if smoke else 4, 256 if smoke else _N70,
                          "optimized", n_dup=4, ppn=1 if smoke else 4,
                          iterations=2, faults=plan)
            return Out(res, tuple(res.times))
        ops.append(Op(f"faulted.{name}", "kernels.faulted_run", run,
                      lambda out: require(all(t > 0 for t in out.value.times),
                                          "faulted run made no progress"),
                      pinned=pinned))

    for name, plan in list(ladder.items())[:1 if smoke else None]:
        faulted(name, plan, pinned=not smoke)
    for i, fseed in enumerate(fx["fault_seeds"][:1 if smoke else None]):
        faulted(f"random{i}", FaultPlan.random(
            fseed, num_ranks=8 if smoke else 64, num_nodes=8 if smoke else 16,
            horizon=0.05), pinned=False)

    # -- static analysis ---------------------------------------------------
    def analysis(name, kind, fn):
        def check(out: Out) -> None:
            errors = [f for f in out.value if f.severity == "error"]
            require(not errors, f"{name}: {len(errors)} error finding(s)")
        ops.append(Op(name, kind, lambda: Out(fn()), check))

    src = pathlib.Path(repro.__file__).parent
    if smoke:
        analysis("check_plans.ssc.p2", "analysis.check_plans",
                 lambda: check_plans([signature_for_ssc(2, 256)]).findings)
        analysis("lint.kernels", "analysis.lint",
                 lambda: lint_paths([str(src / "kernels")]))
    else:
        analysis("check_plans.default", "analysis.check_plans",
                 lambda: check_plans().findings)
        analysis("check_plans.wide", "analysis.check_plans",
                 lambda: check_plans([signature_for_ssc(6, _N70, ppn=4),
                                      signature_for_ssc25d(8, 2, _N70, ppn=2),
                                      signature_for_summa(8, 8192)]).findings)
        analysis("lint.package", "analysis.lint",
                 lambda: lint_paths([str(src)]))
        analysis("lint.mpi_and_kernels", "analysis.lint",
                 lambda: lint_paths([str(src / d) for d in
                                     ("mpi", "kernels", "dense")]))
    return Script(ops)
