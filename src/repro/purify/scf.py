"""A mini SCF driver with per-kernel PPN — the paper's §III-B in full.

The paper's Hartree-Fock application (GTFock) alternates two kernels with
very different characters:

* **Fock matrix construction** — compute-bound (two-electron integrals);
  wants as many processes per node as there are available;
* **density matrix purification** — communication-bound (SymmSquareCube);
  its optimal PPN is a tuning knob (Table III).

"We modified GTFock to allow the user to separately choose the number of
MPI processes for Fock matrix construction and for density matrix
purification" (§IV-B): all processes are launched up front, and the ones a
kernel does not use sleep on an ``MPI_Ibarrier`` polled with ``MPI_Test`` +
usleep (§III-B).  :func:`run_scf` reproduces that structure end to end on
the simulated machine.

The Fock build itself is a synthetic stand-in (the paper's integrals are
proprietary): each active rank charges a share of a total flop budget plus
a small allreduce, which preserves the only property that matters here —
a compute-bound phase at full PPN surrounding a communication-bound kernel
at reduced PPN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dense.distribution import block_range
from repro.dense.mesh import Mesh3D
from repro.mpi.gating import gated_section
from repro.mpi.world import RankEnv, World
from repro.netmodel import MachineParams, NetworkParams, block_placement
from repro.purify.canonical import (
    canonical_initial_guess,
    purification_rank_program,
)
from repro.util import check_positive


@dataclass
class SCFResult:
    """Outcome of :func:`run_scf`."""

    scf_iterations: int
    fock_times: list[float] = field(default_factory=list)
    purify_times: list[float] = field(default_factory=list)
    ssc_times: list[float] = field(default_factory=list)  # per SSC call
    total_time: float = 0.0
    d: np.ndarray | None = None
    world: World | None = None


def run_scf(
    mesh_p: int,
    n: int,
    f: np.ndarray | None = None,
    n_occ: int | None = None,
    *,
    total_ranks: int | None = None,
    launch_ppn: int = 4,
    algorithm: str = "optimized",
    n_dup: int = 4,
    scf_iterations: int = 3,
    purify_iterations: int = 20,
    tol: float = 1e-9,
    fock_flops_total: float = 5e12,
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
) -> SCFResult:
    """Run an SCF-style loop: Fock build at full PPN, purification gated.

    ``total_ranks`` processes (default: enough nodes for the mesh at full
    ``launch_ppn``) are launched; every SCF iteration runs the Fock-build
    kernel on all of them, then gates the purification kernel (a
    ``mesh_p^3`` SymmSquareCube mesh) onto the first ``mesh_p**3`` ranks
    while the rest sleep per §III-B.  Real mode purifies ``f`` (verifiable
    against the eigendecomposition); modeled mode runs fixed iteration
    counts at paper scale.
    """
    check_positive("mesh_p", mesh_p)
    check_positive("scf_iterations", scf_iterations)
    check_positive("launch_ppn", launch_ppn)
    purify_ranks = mesh_p**3
    if total_ranks is None:
        total_ranks = max(purify_ranks, launch_ppn)
    if total_ranks < purify_ranks:
        raise ValueError(
            f"total_ranks={total_ranks} < purification mesh size {purify_ranks}"
        )
    real = f is not None
    if real:
        if n_occ is None:
            raise ValueError("real mode needs n_occ")
        if f.shape != (n, n):
            raise ValueError(f"f has shape {f.shape}, expected {(n, n)}")

    world = World(block_placement(total_ranks, launch_ppn), params=params,
                  machine=machine)
    mesh = Mesh3D(world, mesh_p, n_dup=max(n_dup, 1))
    plane0 = world.new_comm(
        [mesh.rank_of(i, j, 0) for i in range(mesh_p) for j in range(mesh_p)],
        "plane0",
    )
    gate = world.comm_world
    d0 = canonical_initial_guess(f, n_occ) if real else None

    fock_times: list[float] = []
    purify_times: list[float] = []
    ssc_times: list[float] = []

    def fock_build(env: RankEnv, comm_view):
        """Synthetic compute-bound kernel on every rank."""
        yield from env.compute_flops(fock_flops_total / total_ranks,
                                     label="fock-build")
        # Final assembly: a small allreduce (the Fock matrix pieces).
        yield from comm_view.allreduce(nbytes=max(n * 8 // total_ranks, 8))

    def program(env: RankEnv):
        comm = env.view(gate)
        active = env.rank < purify_ranks
        d_blk = None
        for _ in range(scf_iterations):
            t0 = env.now
            yield from fock_build(env, comm)
            yield from comm.barrier()
            if env.rank == 0:
                fock_times.append(env.now - t0)
            t1 = env.now
            work = None
            if active:
                work = purification_rank_program(
                    env, mesh, plane0, n, d0, real, algorithm, n_dup,
                    purify_iterations, tol,
                )
            out = yield from gated_section(env, comm, active, work)
            if env.rank == 0:
                purify_times.append(env.now - t1)
                ssc_times.extend(out[0])
            if active:
                d_blk = out[1]
        return d_blk

    world.spawn_all(program)
    total = world.run()

    d_final = None
    if real:
        outs = world.results()
        d_final = np.zeros((n, n))
        for rank in range(purify_ranks):
            i, j, k = mesh.coords_of(rank)
            if k != 0:
                continue
            rlo, rhi = block_range(i, n, mesh_p)
            clo, chi = block_range(j, n, mesh_p)
            d_final[rlo:rhi, clo:chi] = outs[rank]
    return SCFResult(
        scf_iterations=scf_iterations,
        fock_times=fock_times,
        purify_times=purify_times,
        ssc_times=ssc_times,
        total_time=total,
        d=d_final,
        world=world,
    )
