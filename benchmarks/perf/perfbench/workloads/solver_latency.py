"""solver_latency: latency-bound small messages through the same simulator.

Modeled-mode CG / block CG (classic vs pipelined), force-decomposition
steps, the didactic matvec and the <= 64 KiB collective / point-to-point
micro-benchmarks.  Millions of events, almost no timer cancellation: the
engine heap, ``sim.process`` coroutine switches, ``mpi.transport`` and the
collective executor dominate while the fabric's reshare machinery is light.
A fabric optimisation that taxes the per-event path shows as a loss here.

Every op is seed-independent, so each one's virtual-time digest is pinned.
"""

from __future__ import annotations

from perfbench.harness import Op, Out, Script, require
from perfbench.metrics import INVARIANT_KIND

WHY = ("modeled latency-bound solvers and micro-benchmarks: engine heap, "
       "coroutine switches, transport and collective executor dominate")

_LOCAL_N = 20_000       # ext-cg's fixed local problem size
_MAXITER = 110
_RANKS = (8, 16, 32, 64)
_PPNS = (1, 4)
_PARTICLES = (250_000, 1_000_000, 4_000_000)
_MSG_SIZES = tuple(1024 << i for i in range(7))     # 1 KiB .. 64 KiB
#: (case, sweeps per op)
_CASES = (("blocking", 3), ("nonblocking", 1), ("ppn", 1), ("multithread", 1))
_P2P_WINDOW = 4


def fixtures(seed: int, smoke: bool, workdir):
    """Nothing to generate: modeled solvers take sizes, not data."""
    return {"smoke": smoke}


def warmup(fx) -> None:
    from repro import run_cg, run_force_step, run_matvec
    from repro.bench.microbench import collective_bandwidth, p2p_bandwidth
    from repro.solvers import run_block_cg

    run_cg(4, 400, "pipelined", maxiter=2)
    run_block_cg(4, 400, 2, "pipelined", maxiter=2)
    run_force_step(2, 1000, overlapped=True, n_dup=2)
    run_matvec(2, 64, overlapped=True, n_dup=2)
    collective_bandwidth("bcast", "multithread", 1024)
    p2p_bandwidth(1024, 2)


def script(fx) -> Script:
    from repro import MachineParams, run_cg, run_force_step, run_matvec
    from repro.bench.microbench import collective_bandwidth, p2p_bandwidth
    from repro.solvers import run_block_cg

    smoke = fx["smoke"]
    per_iter: dict = {}
    ops: list[Op] = []

    def op(name, kind, fn):
        def run():
            virtual = fn()
            per_iter[name] = virtual[0]
            return Out(virtual, tuple(virtual))
        ops.append(Op(name, kind, run, pinned=True))

    ranks_list = (8,) if smoke else _RANKS
    maxiter = 10 if smoke else _MAXITER
    for ranks in ranks_list:
        for ppn in (1,) if smoke else _PPNS:
            n = ranks * _LOCAL_N
            for variant in ("classic", "pipelined"):
                op(f"cg.r{ranks}.ppn{ppn}.{variant}", "apps.run_cg",
                   lambda ranks=ranks, n=n, v=variant, ppn=ppn: [
                       run_cg(ranks, n, v, maxiter=maxiter,
                              ppn=ppn).time_per_iteration])
                op(f"bcg.r{ranks}.ppn{ppn}.{variant}", "apps.run_block_cg",
                   lambda ranks=ranks, n=n, v=variant, ppn=ppn: [
                       run_block_cg(ranks, n, 8, v, maxiter=maxiter,
                                    ppn=ppn).time_per_iteration])

    def pipelined_wins():
        big = ranks_list[-1]
        for prefix in ("cg", "bcg"):
            classic, pipelined = (per_iter[f"{prefix}.r{big}.ppn1.{v}"]
                                  for v in ("classic", "pipelined"))
            require(pipelined < classic,
                    f"{prefix}: pipelined lost at {big} ranks")
    ops.append(Op("cg.invariant", INVARIANT_KIND,
                  lambda: pipelined_wins() or Out()))

    # ext-md isolates the communication pattern with a fast node.
    machine = MachineParams(node_flops=1e16)
    for n in (_PARTICLES[0],) if smoke else _PARTICLES:
        op(f"force.n{n}.blocking", "apps.run_force_step",
           lambda n=n: [run_force_step(8, n, steps=2,
                                       machine=machine).time_per_step])
        op(f"force.n{n}.overlapped", "apps.run_force_step",
           lambda n=n: [run_force_step(8, n, steps=2, overlapped=True,
                                       n_dup=4, machine=machine).time_per_step])

    # Algorithms 1-2; the 4x4 calls are ~5 ms together, the 8x8 ones alone.
    op("matvec.p4", "dense.run_matvec",
       lambda: [run_matvec(4, 8192, overlapped=ov, n_dup=nd).elapsed
                for ov, nd in ((False, 1), (True, 4))])
    if not smoke:
        op("matvec.p8.blocking", "dense.run_matvec",
           lambda: [run_matvec(8, 8192).elapsed])
        op("matvec.p8.overlapped", "dense.run_matvec",
           lambda: [run_matvec(8, 8192, overlapped=True, n_dup=4).elapsed])

    # Figs. 3 and 5 below the eager/rendezvous switch.  Single calls are
    # sub-millisecond, so each op sweeps the seven message sizes, repeated
    # until the op costs >= 5 ms.
    for coll in ("bcast",) if smoke else ("bcast", "reduce"):
        for case, reps in _CASES[:2] if smoke else _CASES:
            op(f"coll.{coll}.{case}", "mpi.collective_microbench",
               lambda coll=coll, case=case, reps=reps: [
                   collective_bandwidth(coll, case, msg).elapsed
                   for msg in _MSG_SIZES * reps])
    if not smoke:
        for ppn, reps in ((1, 4), (4, 2), (8, 1)):
            op(f"p2p.ppn{ppn}", "mpi.collective_microbench",
               lambda ppn=ppn, reps=reps: [
                   ppn * _P2P_WINDOW * msg / p2p_bandwidth(
                       msg, ppn, window=_P2P_WINDOW)
                   for msg in _MSG_SIZES * reps])
    return Script(ops)
