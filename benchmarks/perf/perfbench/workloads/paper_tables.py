"""paper_tables: the kernel calls behind Tables I, II, III, V and VI.

Modeled mode at paper scale, bandwidth-bound: multi-MB flows, thousands of
concurrent flows and heavy timer cancellation, so ``netmodel.fabric``,
``sim.engine`` and ``mpi.collectives`` do most of the work while tune,
replay, analytics and numpy do none.  This is what a
``python -m repro.bench tableN`` user waits for.

The op list is the tables' grids with the most expensive N_DUP=4 points
trimmed (8^3 x N_DUP=4, and the 12x12x3 / 7^3 / 8^3 2.5D meshes x N_DUP=4)
so one pass fits the run budget; problem sizes are the paper's.  Every op
is seed-independent, so each one's virtual-time digest is pinned.
"""

from __future__ import annotations

from perfbench.harness import Op, Out, Script, require
from perfbench.metrics import INVARIANT_KIND

WHY = ("modeled paper-scale Tables I-VI kernels: bandwidth-bound flows, "
       "fabric reshare and timer cancellation dominate")

_T1_ALGS = (("original", {}), ("baseline", {}), ("optimized", {"n_dup": 4}))
_T2_NDUPS = (2, 3, 5, 6)                      # 1 and 4 are Table III's PPN=1 row
_T3 = ((1, 4), (2, 5), (4, 6), (6, 7), (8, 8))  # (ppn, mesh side)
_T3_SKIP_NDUP4 = {8}
_T5 = ((2, 8, 2), (5, 12, 2), (8, 16, 2), (4, 9, 3), (7, 12, 3), (1, 4, 4),
       (4, 8, 4), (2, 5, 5), (4, 6, 6), (6, 7, 7), (8, 8, 8))  # (ppn, q, c)
_T5_SKIP_NDUP4 = {(12, 3), (7, 7), (8, 8)}
_T6 = {"plain": ("plain", 1, 1), "stream-d2": ("streaming", 1, 2),
       "stream-d4": ("streaming", 1, 4), "col2-d2": ("colored", 2, 2),
       "col4-d4": ("colored", 4, 4)}
_T6_N = 2048


def fixtures(seed: int, smoke: bool, workdir):
    """Nothing to generate: every input is fixed by the paper."""
    return {"smoke": smoke}


def warmup(fx) -> None:
    from repro import run_ssc, run_ssc25d, run_summa

    run_ssc(2, 64, "optimized", n_dup=2)
    run_ssc25d(2, 2, 64, n_dup=2)
    run_summa(2, 64, algorithm="colored")


def script(fx) -> Script:
    from repro import SYSTEMS, run_ssc, run_ssc25d, run_summa

    smoke = fx["smoke"]
    tf: dict = {}        # op name -> TFlop/s
    ms: dict = {}        # op name -> simulated seconds
    ops: list[Op] = []

    def ssc(name, p, n, alg, **kw):
        def run():
            r = run_ssc(p, n, alg, **kw)
            tf[name] = r.tflops
            return Out(r.tflops, tuple(r.times))
        ops.append(Op(name, "kernels.run_ssc", run, pinned=True))

    def ssc25d(name, q, c, n, **kw):
        def run():
            r = run_ssc25d(q, c, n, **kw)
            tf[name] = r.tflops
            return Out(r.tflops, tuple(r.times))
        ops.append(Op(name, "kernels.run_ssc25d", run, pinned=True))

    def summa(name, calls):
        def run():
            times = [run_summa(p, _T6_N, algorithm=a, colors=c, depth=d).elapsed
                     for p, (a, c, d) in calls]
            ms[name] = times[0]
            return Out(times, tuple(times))
        ops.append(Op(name, "dense.run_summa", run, pinned=True))

    def invariant(name, fn):
        ops.append(Op(name, INVARIANT_KIND, lambda: fn() or Out()))

    # -- Table I: Algorithms 3/4/5 on the three molecular systems ----------
    systems = {"1hsg_45": (256, 0)} if smoke else SYSTEMS
    t1_algs = _T1_ALGS[1:] if smoke else _T1_ALGS
    for system, (n, _nocc) in systems.items():
        for alg, kw in t1_algs:
            ssc(f"t1.{system}.{alg}", 2 if smoke else 4, n, alg,
                iterations=1 if smoke else 3, **kw)

    def t1_order():
        for system in systems:
            orig, base, opt = (tf[f"t1.{system}.{a}"] for a, _ in _T1_ALGS)
            require(opt > base > orig,
                    f"Table I order broken on {system}: {orig} {base} {opt}")
    if not smoke:       # the ordering is a paper-scale property
        invariant("t1.invariant", t1_order)
        n70 = SYSTEMS["1hsg_70"][0]
        # -- Table II: the N_DUP axis at p=4 ------------------------------
        for nd in _T2_NDUPS:
            ssc(f"t2.ndup{nd}", 4, n70, "optimized", n_dup=nd)
        # -- Table III: optimized x PPN x N_DUP ---------------------------
        for ppn, p in _T3:
            for nd in (1, 4):
                if nd == 4 and ppn in _T3_SKIP_NDUP4:
                    continue
                ssc(f"t3.ppn{ppn}.ndup{nd}", p, n70, "optimized", n_dup=nd,
                    ppn=ppn)

        def t3_ndup_gain():
            for ppn, _p in _T3:
                if ppn in _T3_SKIP_NDUP4:
                    continue
                one, four = (tf[f"t3.ppn{ppn}.ndup{nd}"] for nd in (1, 4))
                require(four > 1.05 * one,
                        f"Table III: N_DUP=4 gain lost at PPN={ppn}")
        invariant("t3.invariant", t3_ndup_gain)

    # -- Table V: the 2.5D meshes ------------------------------------------
    for ppn, q, c in ((1, 2, 2),) if smoke else _T5:
        for nd in (1, 4):
            if nd == 4 and (q, c) in _T5_SKIP_NDUP4:
                continue
            ssc25d(f"t5.{q}x{q}x{c}.ndup{nd}", q, c,
                   256 if smoke else SYSTEMS["1hsg_70"][0], n_dup=nd, ppn=ppn)

    # -- Table VI: the SUMMA family, with lanes ----------------------------
    if smoke:
        summa("t6.p4.plain", [(4, _T6["plain"])])
        summa("t6.p4.col4-d4", [(4, _T6["col4-d4"])])
    else:
        # The three valid 2x2 variants are sub-millisecond: one batched op.
        summa("t6.p2.family", [(2, _T6[v]) for v in
                               ("plain", "stream-d2", "col2-d2")] * 3)
        for p in (4, 8):
            for label, variant in _T6.items():
                summa(f"t6.p{p}.{label}", [(p, variant)])

    def t6_colored_speedup():
        speedup = ms["t6.p4.plain"] / ms["t6.p4.col4-d4"]
        require(speedup >= 1.5, f"Table VI: colored-4 only {speedup:.2f}x")
    invariant("t6.invariant", t6_colored_speedup)

    return Script(ops)
