"""SymmSquareCube via 2.5D matrix multiplication — the paper's Algorithm 6.

On a ``q x q x c`` mesh (``P = q^2 c`` processes, replication factor ``c``):

1. ``(i,j,0)`` grid-broadcasts ``D[i,j]`` to all layers (A and B share it).
2. ``s = q/c`` Cannon steps per layer at inner offset ``k*s`` accumulate the
   layer's share of ``D^2``.
3. ``MPI_Allreduce`` over the grid dimension sums the layers; every layer
   now holds ``D2[i,j]``, the B blocks of the second multiplication.
4. A second alignment + ``s`` Cannon steps accumulate the layer's share of
   ``D^3``.
5. ``MPI_Reduce`` over the grid dimension lands ``D3[i,j]`` on the front.

Nonblocking overlap (``n_dup > 1``) splits each of the three collectives
into ``N_DUP`` parts on duplicated grid communicators — each collective is
overlapped *with itself*; as the paper notes, this algorithm offers no
cross-operation pipelining like Algorithm 5, so the gains are smaller.
"""

from __future__ import annotations

import numpy as np

from repro.dense.cannon import cannon_program
from repro.dense.distribution import block_dim, part_slices
from repro.dense.mesh import Mesh3D
from repro.kernels.driver import KernelSpec, register, run_kernel
from repro.kernels.symmsquarecube import (
    SSCResult,
    check_symmetric,
    pipeline_part_sizes,
    ssc_flops,
)
from repro.mpi.requests import waitall
from repro.mpi.world import RankEnv
from repro.netmodel import MachineParams, NetworkParams
from repro.netmodel.analytic import estimate_ssc25d_time
from repro.sim.faults import FaultPlan
from repro.tune.candidates import Candidate, meshes_25d, n_dup_choices
from repro.tune.validity import validate_ssc25d_config
from repro.util import check_positive


def _overlapped_grd_bcast(env, mesh, i, j, n_dup, buf, total, root):
    """Ibcast each of the buffer's N_DUP parts on its own grid-comm duplicate."""
    reqs = []
    for c, (lo, hi) in enumerate(part_slices(total, n_dup)):
        gv = env.view(mesh.grd_comm(i, j, c))
        part = None if buf is None else buf[lo:hi]
        req = yield from gv.ibcast(part, nbytes=(hi - lo) * 8, root=root)
        reqs.append(req)
    yield from waitall(reqs)
    return buf


def _overlapped_grd_allreduce(env, mesh, i, j, n_dup, buf, total):
    """Iallreduce the buffer's parts on duplicated grid comms; returns result."""
    reqs = []
    parts = part_slices(total, n_dup)
    for c, (lo, hi) in enumerate(parts):
        gv = env.view(mesh.grd_comm(i, j, c))
        part = None if buf is None else buf[lo:hi]
        req = yield from gv.iallreduce(part, nbytes=(hi - lo) * 8)
        reqs.append(req)
    results = yield from waitall(reqs)
    if buf is None:
        return None
    out = np.empty(total)
    for (lo, hi), part in zip(parts, results):
        out[lo:hi] = part
    return out


def _overlapped_grd_reduce(env, mesh, i, j, n_dup, buf, total, root):
    """Ireduce the buffer's parts on duplicated grid comms; returns root result."""
    reqs = []
    parts = part_slices(total, n_dup)
    for c, (lo, hi) in enumerate(parts):
        gv = env.view(mesh.grd_comm(i, j, c))
        part = None if buf is None else buf[lo:hi]
        req = yield from gv.ireduce(part, nbytes=(hi - lo) * 8, root=root)
        reqs.append(req)
    results = yield from waitall(reqs)
    me_local = mesh.grd_comm(i, j).local(env.rank)
    if buf is None or me_local != root:
        return None
    out = np.empty(total)
    for (lo, hi), part in zip(parts, results):
        out[lo:hi] = part
    return out


def ssc25d_program(env: RankEnv, mesh: Mesh3D, n: int,
                   d_blk: np.ndarray | None, real: bool, n_dup: int = 1):
    """One SymmSquareCube call via 2.5D multiplication (Algorithm 6).

    Front-face ranks return ``(d2_block, d3_block)``; others ``None``.
    """
    q, c = mesh.pi, mesh.pk
    if q % c != 0:
        raise ValueError(f"2.5D requires c | q, got q={q}, c={c}")
    check_positive("n_dup", n_dup)
    s = q // c
    i, j, k = mesh.coords_of(env.rank)
    bi, bj = block_dim(i, n, q), block_dim(j, n, q)

    # Step 1: replicate D[i,j] to every layer (A and B alias it).
    if k == 0 and real:
        d_home = np.ascontiguousarray(d_blk).ravel().copy()
    else:
        d_home = np.empty(bi * bj) if real else None
    d_home = yield from _overlapped_grd_bcast(
        env, mesh, i, j, n_dup, d_home, bi * bj, root=0
    )
    d_mat = d_home.reshape(bi, bj) if real else None

    # Step 2: this layer's Cannon share of D^2 = D * D.
    c1 = yield from cannon_program(
        env, mesh, k, i, j, n, steps=s, offset=k * s,
        a_blk=d_mat, b_blk=d_mat, c_acc=None,
    )

    # Step 3: allreduce across layers -> D2[i,j] everywhere.
    c1_buf = c1.ravel() if real else None
    d2_buf = yield from _overlapped_grd_allreduce(
        env, mesh, i, j, n_dup, c1_buf, bi * bj
    )
    d2_mat = d2_buf.reshape(bi, bj) if real else None

    # Step 4: second alignment + Cannon share of D^3 = D * D2.
    c2 = yield from cannon_program(
        env, mesh, k, i, j, n, steps=s, offset=k * s,
        a_blk=d_mat, b_blk=d2_mat, c_acc=None,
    )

    # Step 5: reduce across layers to the front face -> D3[i,j].
    c2_buf = c2.ravel() if real else None
    d3_buf = yield from _overlapped_grd_reduce(
        env, mesh, i, j, n_dup, c2_buf, bi * bj, root=0
    )

    if k != 0:
        return None
    if not real:
        return (None, None)
    return (d2_mat.copy(), d3_buf.reshape(bi, bj))


def ssc25d_plan_population(q: int, c: int, n: int,
                           n_dup: int = 1) -> set[tuple]:
    """Every collective op shape Algorithm 6 can post, as
    ``(verb, comm_size, root, n_elems, itemsize)`` tuples.

    The 2.5D kernel's three collectives (replicating broadcast, inter-layer
    allreduce, front-face reduce) all run over the grid dimension — ``c``
    ranks, root 0 — moving ``n_dup`` contiguous parts of the ``bi*bj``
    blocks of the ``q``-way partition; the per-iteration barrier spans the
    full ``q^2 c`` mesh.  The Cannon shift itineraries are point-to-point
    and are covered separately by
    :func:`repro.analysis.schedule.verify_cannon_shift_plans`.
    """
    pop: set[tuple] = {("barrier", q * q * c, 0, 0, 1)}
    for sz in pipeline_part_sizes(n, q, n_dup):
        pop.add(("bcast", c, 0, sz, 8))
        pop.add(("allreduce", c, 0, sz, 8))
        pop.add(("reduce", c, 0, sz, 8))
    return pop


def _cannon_checks(cand, n, params, seen):
    """Static checks beyond the collectives: the layers' Cannon itineraries."""
    from repro.analysis.schedule import verify_cannon_shift_plans

    q, _q, c = cand.mesh
    steps = q // c
    for k in range(c):
        key = (q, n, steps, k * steps)
        if key not in seen:
            seen.add(key)
            yield "cannon_checks", verify_cannon_shift_plans(*key)


class SSC25DResult(SSCResult):
    """Outcome of :func:`run_ssc25d`."""


SSC25D = register(KernelSpec(
    name="ssc25d",
    shape_flags=("q", "c"),
    mesh_shape=lambda q, c: (q, q, c),
    validate=lambda cand, n, num_channels: validate_ssc25d_config(
        cand.mesh[0], cand.mesh[2], n, cand.n_dup, cand.ppn),
    make_mesh=lambda world, cand: Mesh3D(world, *cand.mesh, n_dup=cand.n_dup),
    call=lambda env, mesh, n, cand, real, d_blk=None: ssc25d_program(
        env, mesh, n, d_blk, real, cand.n_dup),
    outputs=("d2", "d3"),
    result_type=SSC25DResult,
    flops=ssc_flops,
    describe=lambda cand, n: (
        f"run_ssc25d(q={cand.mesh[0]}, c={cand.mesh[2]}, n={n})"),
    population=lambda cand, n: ssc25d_plan_population(
        cand.mesh[0], cand.mesh[2], n, n_dup=cand.n_dup),
    # The replication factor is a tuner axis: any q' x q' x c' factorization
    # of the signature's rank count is a candidate.
    axes=lambda sig: (("ssc25d", mesh, n_dup, 1)
                      for mesh in meshes_25d(sig.ranks)
                      for n_dup in n_dup_choices()),
    # Baseline: the requested mesh, each collective in one piece.
    default=lambda sig: Candidate(kernel="ssc25d", algorithm="ssc25d",
                                  mesh=sig.mesh, n_dup=1, ppn=sig.ppn),
    estimate=lambda cand, n, params, machine: estimate_ssc25d_time(
        n, cand.mesh[0], cand.mesh[2], cand.n_dup, cand.ppn,
        collective=cand.collective, params=params, machine=machine),
    check_data=check_symmetric,
    static_checks=_cannon_checks,
))


def run_ssc25d(
    q: int,
    c: int,
    n: int,
    d: np.ndarray | None = None,
    *,
    n_dup: int = 1,
    ppn: int = 1,
    iterations: int = 1,
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
    placement: str = "block",
    trace: bool = False,
    faults: FaultPlan | None = None,
    verify: bool = False,
    verify_plans: bool = False,
    tune=None,
    tune_db=None,
    deadline: float | None = None,
    record: bool = False,
) -> SSC25DResult:
    """Run Algorithm 6 on a fresh ``q x q x c`` world (cf. :func:`run_ssc`).

    The keyword options after ``n_dup`` are the shared runner options of
    :func:`repro.kernels.run_kernel`.  Under ``tune`` the tuner may move to
    any ``q' x q' x c'`` factorization with the same rank count and picks
    ``N_DUP``, PPN and the collective schedule.
    """
    cand = Candidate("ssc25d", "ssc25d", SSC25D.mesh_shape(q, c), n_dup,
                     max(ppn, 1))
    return run_kernel(
        SSC25D, cand, n, (d,), iterations=iterations, params=params,
        machine=machine, placement=placement, trace=trace, faults=faults,
        verify=verify, verify_plans=verify_plans, tune=tune, tune_db=tune_db,
        deadline=deadline, record=record,
    )
