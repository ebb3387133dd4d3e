"""SymmSquareCube on the 3D mesh — the paper's Algorithms 3, 4 and 5.

Mesh conventions (see :class:`repro.dense.mesh.Mesh3D`): process ``(i,j,k)``;
``row_comm(j,k)`` spans ``P[:,j,k]`` (local rank = ``i``), ``col_comm(i,k)``
spans ``P[i,:,k]`` (local rank = ``j``), ``grd_comm(i,j)`` spans ``P[i,j,:]``
(local rank = ``k``).  ``D[i,j]`` starts on the front face ``(i,j,0)``; the
results ``D^2`` and ``D^3`` are returned distributed the same way.

Data flow (Algorithm 4, the baseline):

1. ``(i,j,0)`` grid-broadcasts ``D[i,j]`` as ``A[i,j]`` to ``(i,j,:)``.
2. ``(k,j,k)`` row-broadcasts its ``D[k,j]``; receivers transpose locally to
   get ``B[j,k] = D[k,j]^T`` — the one place the symmetry of D is used.
3. ``C[i,j,k] = A[i,j] @ B[j,k]``.
4. Column-reduce ``C[i,:,k]`` to ``D2[i,k]`` on ``(i,i,k)``.
5. ``(j,j,k)`` row-broadcasts ``D2[j,k]`` as the new ``B[j,k]``.
6. Second local multiply; column-reduce to ``D3[i,k]`` on ``(i,k,k)``.
7. Point-to-point to the front face: ``D2[i,k]``: ``(i,i,k) -> (i,k,0)``
   (global comm); ``D3[i,k]``: ``(i,k,k) -> (i,k,0)`` (grid comm).

Algorithm 3 (original) reduces ``D2`` onto ``(i,k,k)`` instead, ships it to
the front immediately, and needs an extra transpose exchange
``(j,k,k) -> (k,j,k)`` before the second row broadcast.

Algorithm 5 (optimized) is Algorithm 4 with every communicated block split
into ``N_DUP`` contiguous parts, each part travelling on its own duplicated
communicator via nonblocking collectives, and the dependent phases pipelined
part-by-part exactly as in the paper's listing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.dense.distribution import block_dim, part_slices
from repro.dense.mesh import Mesh3D
from repro.kernels.driver import (
    KernelResult,
    KernelSpec,
    register,
    run_kernel,
)
from repro.mpi.requests import waitall
from repro.mpi.world import RankEnv
from repro.netmodel import MachineParams, NetworkParams
from repro.netmodel.analytic import estimate_ssc_time
from repro.sim.faults import FaultPlan
from repro.tune.candidates import Candidate, n_dup_choices
from repro.tune.validity import (
    SSC_ALGORITHMS,
    min_block_elems,
    validate_ssc_config,
)
from repro.util import check_positive

_TAG_D2 = 21
_TAG_D3 = 22
_TAG_TR = 23


def ssc_flops(n: int) -> float:
    """Total flops of one SymmSquareCube call: two N^3 multiplies -> ``4 n^3``."""
    return 4.0 * float(n) ** 3


def _empty(real: bool, size: int):
    return np.empty(size) if real else None


# ---------------------------------------------------------------------------
# shared phases (blocking forms, Algorithms 3 and 4)
# ---------------------------------------------------------------------------


def _grd_bcast_A(env, mesh, i, j, k, n, d_blk, real):
    """Step 1: broadcast D[i,j] from the front face along the grid dimension."""
    p = mesh.pi
    bi, bj = block_dim(i, n, p), block_dim(j, n, p)
    if k == 0 and real:
        a_buf = np.ascontiguousarray(d_blk).ravel().copy()
    else:
        a_buf = _empty(real, bi * bj)
    grd = env.view(mesh.grd_comm(i, j))
    a_buf = yield from grd.bcast(a_buf, nbytes=bi * bj * 8, root=0)
    return a_buf  # raveled D[i,j]


def _row_bcast_Bt(env, mesh, i, j, k, n, a_buf, real):
    """Step 2: root (k,j,k) broadcasts D[k,j]; returns B[j,k] = D[k,j]^T."""
    p = mesh.pi
    bj, bk = block_dim(j, n, p), block_dim(k, n, p)
    row = env.view(mesh.row_comm(j, k))
    bt_buf = a_buf if i == k else _empty(real, bk * bj)
    bt_buf = yield from row.bcast(bt_buf, nbytes=bk * bj * 8, root=k)
    if not real:
        return None
    return np.ascontiguousarray(bt_buf.reshape(bk, bj).T)


def _d3_to_front(env, mesh, i, j, k, n, d3_red, real):
    """Step 7b/10: (i,k,k) sends D3[i,k] to (i,k,0) in its grid comm."""
    p = mesh.pi
    bi, bj = block_dim(i, n, p), block_dim(j, n, p)
    grd = env.view(mesh.grd_comm(i, j))
    if j == k and k == 0:
        return d3_red  # (i,0,0) already holds D3[i,0]
    if j == k:
        yield from grd.send(0, data=d3_red, nbytes=bi * bj * 8, tag=_TAG_D3)
        return None
    if k == 0:
        got = yield from grd.recv(j, tag=_TAG_D3)
        return got if real else True
    return None


# ---------------------------------------------------------------------------
# Algorithm 3 — original
# ---------------------------------------------------------------------------


def ssc_original_program(env: RankEnv, mesh: Mesh3D, n: int,
                         d_blk: np.ndarray | None, real: bool):
    """One SymmSquareCube call, Algorithm 3 (original GTFock version).

    Front-face ranks return ``(d2_block, d3_block)``; other ranks ``None``.
    In modeled mode front-face ranks return ``(None, None)``.
    """
    p = mesh.pi
    i, j, k = mesh.coords_of(env.rank)
    bi, bj, bk = (block_dim(x, n, p) for x in (i, j, k))

    a_buf = yield from _grd_bcast_A(env, mesh, i, j, k, n, d_blk, real)
    b1 = yield from _row_bcast_Bt(env, mesh, i, j, k, n, a_buf, real)
    a_mat = a_buf.reshape(bi, bj) if real else None
    c1 = yield from env.gemm(a_mat, b1, bi, bj, bk, label="ssc-mm1")

    # Step 4: reduce C[i,:,k] to D2[i,k] on (i,k,k)  [col_comm root j=k].
    col = env.view(mesh.col_comm(i, k))
    send = c1.ravel() if real else None
    d2_red = yield from col.reduce(send, nbytes=bi * bk * 8, root=k)

    # Step 5: D2[i,k] from (i,k,k) to the front (i,k,0) via grid comm.
    grd = env.view(mesh.grd_comm(i, j))
    d2_front = None
    if j == k and k == 0:
        d2_front = d2_red
    elif j == k:
        yield from grd.send(0, data=d2_red, nbytes=bi * bj * 8, tag=_TAG_D2)
    elif k == 0:
        got = yield from grd.recv(j, tag=_TAG_D2)
        d2_front = got if real else True

    # Step 6: transpose exchange (j',k',k') -> (k',j',k') in the global comm
    # so that P[k,j,k] holds D2[j,k] for the step-7 row broadcast.
    b2_buf = None  # raveled D2[j,k] at the row-broadcast root
    gv = env.view(mesh.global_comm)
    if j == k and i == k:
        b2_buf = d2_red
    else:
        sreq = rreq = None
        if j == k:  # I am (i,k,k) holding D2[i,k]: send to (k,i,k).
            peer = mesh.global_comm.local(mesh.rank_of(k, i, k))
            sreq = yield from gv.isend(
                peer, data=d2_red, nbytes=bi * bk * 8, tag=_TAG_TR
            )
        if i == k:  # I am (k,j,k): receive D2[j,k] from (j,k,k).
            peer = mesh.global_comm.local(mesh.rank_of(j, k, k))
            rreq = yield from gv.irecv(peer, tag=_TAG_TR)
        if sreq is not None:
            yield from sreq.wait()
        if rreq is not None:
            b2_buf = yield from rreq.wait()

    # Step 7: row-broadcast D2[j,k] from P[k,j,k] (root local rank k).
    row = env.view(mesh.row_comm(j, k))
    if i == k:
        buf = b2_buf if not real or b2_buf is None else np.asarray(b2_buf).ravel()
        if real and buf is None:
            raise RuntimeError("transpose exchange did not deliver D2[j,k]")
    else:
        buf = _empty(real, bj * bk)
    buf = yield from row.bcast(buf, nbytes=bj * bk * 8, root=k)
    b2 = buf.reshape(bj, bk) if real else None

    # Steps 8-10: second multiply, reduce to (i,k,k), ship D3 to the front.
    c2 = yield from env.gemm(a_mat, b2, bi, bj, bk, label="ssc-mm2")
    send = c2.ravel() if real else None
    d3_red = yield from col.reduce(send, nbytes=bi * bk * 8, root=k)
    d3_front = yield from _d3_to_front(env, mesh, i, j, k, n, d3_red, real)

    if k == 0:
        if not real:
            return (None, None)
        d2 = np.asarray(d2_front).reshape(bi, bj)
        d3 = np.asarray(d3_front).reshape(bi, bj)
        return (d2, d3)
    return None


# ---------------------------------------------------------------------------
# Algorithm 4 — baseline
# ---------------------------------------------------------------------------


def ssc_baseline_program(env: RankEnv, mesh: Mesh3D, n: int,
                         d_blk: np.ndarray | None, real: bool):
    """One SymmSquareCube call, Algorithm 4 (baseline: no transpose step)."""
    p = mesh.pi
    i, j, k = mesh.coords_of(env.rank)
    bi, bj, bk = (block_dim(x, n, p) for x in (i, j, k))

    a_buf = yield from _grd_bcast_A(env, mesh, i, j, k, n, d_blk, real)
    b1 = yield from _row_bcast_Bt(env, mesh, i, j, k, n, a_buf, real)
    a_mat = a_buf.reshape(bi, bj) if real else None
    c1 = yield from env.gemm(a_mat, b1, bi, bj, bk, label="ssc-mm1")

    # Step 4: reduce C[i,:,k] to D2[i,k] on (i,i,k)  [col_comm root j=i].
    col = env.view(mesh.col_comm(i, k))
    send = c1.ravel() if real else None
    d2_red = yield from col.reduce(send, nbytes=bi * bk * 8, root=i)

    # Step 5: (j,j,k) row-broadcasts D2[j,k] as the new B[j,k] (root j).
    row = env.view(mesh.row_comm(j, k))
    buf = d2_red if i == j else _empty(real, bj * bk)
    buf = yield from row.bcast(buf, nbytes=bj * bk * 8, root=j)
    b2 = buf.reshape(bj, bk) if real else None

    # Step 6-7: second multiply; reduce C to D3[i,k] on (i,k,k) (root j=k).
    c2 = yield from env.gemm(a_mat, b2, bi, bj, bk, label="ssc-mm2")
    send = c2.ravel() if real else None
    d3_red = yield from col.reduce(send, nbytes=bi * bk * 8, root=k)

    # Step 8: D2[i,k]: (i,i,k) -> (i,k,0) via the global comm (both roles may
    # apply to one rank; post the receive first to stay deadlock-free).
    gv = env.view(mesh.global_comm)
    d2_front = None
    rreq = sreq = None
    if k == 0:  # receiver of D2[i,j] from (i,i,j)
        src = mesh.global_comm.local(mesh.rank_of(i, i, j))
        if mesh.rank_of(i, i, j) == env.rank:
            d2_front = d2_red
        else:
            rreq = yield from gv.irecv(src, tag=_TAG_D2)
    if j == i and not (i == k and k == 0):
        dst_rank = mesh.rank_of(i, k, 0)
        if dst_rank != env.rank:
            dst = mesh.global_comm.local(dst_rank)
            sreq = yield from gv.isend(
                dst, data=d2_red, nbytes=bi * bk * 8, tag=_TAG_D2
            )
        else:
            d2_front = d2_red
    # Step 9: D3[i,k]: (i,k,k) -> (i,k,0) via the grid comm.
    d3_front = yield from _d3_to_front(env, mesh, i, j, k, n, d3_red, real)
    if rreq is not None:
        got = yield from rreq.wait()
        d2_front = got if real else True
    if sreq is not None:
        yield from sreq.wait()

    if k == 0:
        if not real:
            return (None, None)
        d2 = np.asarray(d2_front).reshape(bi, bj)
        d3 = np.asarray(d3_front).reshape(bi, bj)
        return (d2, d3)
    return None


# ---------------------------------------------------------------------------
# Algorithm 5 — optimized (nonblocking overlap, N_DUP pipeline)
# ---------------------------------------------------------------------------


def ssc_optimized_program(env: RankEnv, mesh: Mesh3D, n: int,
                          d_blk: np.ndarray | None, real: bool,
                          n_dup: int | None = None):
    """One SymmSquareCube call, Algorithm 5 (pipelined nonblocking overlap).

    ``n_dup`` defaults to the mesh's duplicate count.  With ``n_dup == 1``
    this is communication-equivalent to the baseline algorithm executed
    with nonblocking calls.
    """
    p = mesh.pi
    n_dup = mesh.n_dup if n_dup is None else n_dup
    check_positive("n_dup", n_dup)
    if n_dup > mesh.n_dup:
        raise ValueError(f"mesh only has {mesh.n_dup} communicator duplicates")
    i, j, k = mesh.coords_of(env.rank)
    bi, bj, bk = (block_dim(x, n, p) for x in (i, j, k))

    # --- Phase 1 (lines 1-8): pipelined grid bcast of A -> row bcast of B^T.
    if k == 0 and real:
        a_buf = np.ascontiguousarray(d_blk).ravel().copy()
    else:
        a_buf = _empty(real, bi * bj)
    a_parts = part_slices(bi * bj, n_dup)
    grd_reqs = []
    for c, (lo, hi) in enumerate(a_parts):
        gv = env.view(mesh.grd_comm(i, j, c))
        part = None if a_buf is None else a_buf[lo:hi]
        req = yield from gv.ibcast(part, nbytes=(hi - lo) * 8, root=0)
        grd_reqs.append(req)
    # B^T buffer: D[k,j] raveled (the row-broadcast root is (k,j,k), whose
    # own A buffer is exactly D[k,j]).
    bt_buf = a_buf if i == k else _empty(real, bk * bj)
    bt_parts = part_slices(bk * bj, n_dup)
    row_reqs = []
    for c, (lo, hi) in enumerate(bt_parts):
        rv = env.view(mesh.row_comm(j, k, c))
        if i == k:
            yield from grd_reqs[c].wait()  # part c of my D[k,j] has arrived
        part = None if bt_buf is None else bt_buf[lo:hi]
        req = yield from rv.ibcast(part, nbytes=(hi - lo) * 8, root=k)
        row_reqs.append(req)
    yield from waitall(row_reqs + grd_reqs)
    a_mat = a_buf.reshape(bi, bj) if real else None
    b1 = np.ascontiguousarray(bt_buf.reshape(bk, bj).T) if real else None

    # --- Phase 2 (line 9): first local multiply.
    c1 = yield from env.gemm(a_mat, b1, bi, bj, bk, label="ssc-mm1")

    # --- Phase 3 (lines 10-17): pipelined Ireduce of C -> row Ibcast of D2.
    c1_buf = c1.ravel() if real else None
    ck_parts = part_slices(bi * bk, n_dup)
    red2_reqs = []
    for c, (lo, hi) in enumerate(ck_parts):
        cv = env.view(mesh.col_comm(i, k, c))
        part = None if c1_buf is None else c1_buf[lo:hi]
        req = yield from cv.ireduce(part, nbytes=(hi - lo) * 8, root=i)
        red2_reqs.append(req)
    d2_buf = _empty(real, bi * bk) if i == j else None
    b2_buf = _empty(real, bj * bk) if i != j else d2_buf  # D2[j,k] raveled
    b2_parts = part_slices(bj * bk, n_dup)
    bc2_reqs = []
    for c, (lo, hi) in enumerate(b2_parts):
        rv = env.view(mesh.row_comm(j, k, c))
        if i == j:
            red_part = yield from red2_reqs[c].wait()
            if real:
                d2_buf[lo:hi] = red_part
            part = None if d2_buf is None else d2_buf[lo:hi]
        else:
            part = None if b2_buf is None else b2_buf[lo:hi]
        req = yield from rv.ibcast(part, nbytes=(hi - lo) * 8, root=j)
        bc2_reqs.append(req)
    yield from waitall(bc2_reqs)
    b2 = b2_buf.reshape(bj, bk) if real else None

    # --- Phase 4 (line 18): second local multiply.
    c2 = yield from env.gemm(a_mat, b2, bi, bj, bk, label="ssc-mm2")

    # --- Phase 5 (lines 19-27): Ireduce of D3 overlapped with shipping D2
    # and D3 parts to the front face.
    c2_buf = c2.ravel() if real else None
    red3_reqs = []
    for c, (lo, hi) in enumerate(ck_parts):
        cv = env.view(mesh.col_comm(i, k, c))
        part = None if c2_buf is None else c2_buf[lo:hi]
        req = yield from cv.ireduce(part, nbytes=(hi - lo) * 8, root=k)
        red3_reqs.append(req)

    final_reqs = []
    # Receivers on the front face post all irecvs up front.
    d2_src = mesh.rank_of(i, i, j)   # holder of D2[i,j]
    d3_src = mesh.rank_of(i, j, j)   # holder of D3[i,j] (coords (i,k,k), k=j)
    d2_rreqs = d3_rreqs = None
    bij_parts = part_slices(bi * bj, n_dup)
    if k == 0:
        gvs = [env.view(mesh.global_dup(c)) for c in range(n_dup)]
        grds = [env.view(mesh.grd_comm(i, j, c)) for c in range(n_dup)]
        if d2_src != env.rank:
            d2_rreqs = []
            for c in range(n_dup):
                src = mesh.global_dups[c].local(d2_src)
                req = yield from gvs[c].irecv(src, tag=_TAG_D2)
                d2_rreqs.append(req)
        if d3_src != env.rank:
            d3_rreqs = []
            for c in range(n_dup):
                req = yield from grds[c].irecv(j, tag=_TAG_D3)
                d3_rreqs.append(req)
    # Senders: D2 part c posted immediately; D3 part c posted as its
    # reduction completes (paper lines 22-26).
    d3_buf = _empty(real, bi * bk) if j == k else None
    d2_dst = mesh.rank_of(i, k, 0)
    for c, (lo, hi) in enumerate(ck_parts):
        if j == i and d2_dst != env.rank:
            gv = env.view(mesh.global_dup(c))
            dst = mesh.global_dups[c].local(d2_dst)
            part = None if d2_buf is None else np.array(d2_buf[lo:hi])
            req = yield from gv.isend(
                dst, data=part, nbytes=(hi - lo) * 8, tag=_TAG_D2
            )
            final_reqs.append(req)
        if j == k:
            red_part = yield from red3_reqs[c].wait()
            if real:
                d3_buf[lo:hi] = red_part
            if k != 0:
                grd_v = env.view(mesh.grd_comm(i, j, c))
                part = None if d3_buf is None else np.array(d3_buf[lo:hi])
                req = yield from grd_v.isend(
                    0, data=part, nbytes=(hi - lo) * 8, tag=_TAG_D3
                )
                final_reqs.append(req)
    # Collect everything outstanding (line 27) + leftover reduce requests.
    final_reqs.extend(r for r in red3_reqs if j != k)
    final_reqs.extend(r for r in red2_reqs if i != j)
    yield from waitall(final_reqs)

    if k != 0:
        return None
    # Collect the front-face result parts (line 27 covers these irecvs too).
    d2 = d3 = None
    if d2_src == env.rank:
        d2 = d2_buf.reshape(bi, bj) if real else None
    else:
        parts = yield from waitall(d2_rreqs)
        if real:
            d2 = np.empty(bi * bj)
            for (lo, hi), part in zip(bij_parts, parts):
                d2[lo:hi] = part
            d2 = d2.reshape(bi, bj)
    if d3_src == env.rank:
        d3 = d3_buf.reshape(bi, bj) if real else None
    else:
        parts = yield from waitall(d3_rreqs)
        if real:
            d3 = np.empty(bi * bj)
            for (lo, hi), part in zip(bij_parts, parts):
                d3[lo:hi] = part
            d3 = d3.reshape(bi, bj)
    return (d2, d3)


# ---------------------------------------------------------------------------
# kernel spec + convenience runner
# ---------------------------------------------------------------------------

_ALGORITHMS = {
    "original": ssc_original_program,
    "baseline": ssc_baseline_program,
    "optimized": ssc_optimized_program,
}


def check_symmetric(d: np.ndarray) -> None:
    """SymmSquareCube's one use of symmetry (step 2) needs ``d == d.T``.

    The exact test is ~5x cheaper; the tolerance test runs only on a
    mismatch (NaN included: ``array_equal`` is False there)."""
    if not np.array_equal(d, d.T) and not np.allclose(d, d.T):
        raise ValueError("SymmSquareCube requires a symmetric input matrix")


def pipeline_part_sizes(n: int, p: int, n_dup: int) -> list[int]:
    """Distinct element counts of the ``n_dup`` contiguous parts of every
    ``p``-way block product (``bi*bj``) of an ``n x n`` matrix, ascending."""
    dims = sorted({block_dim(x, n, p) for x in range(p)})
    blocks = sorted({a * b for a in dims for b in dims})
    return sorted({hi - lo for blk in blocks
                   for lo, hi in part_slices(blk, n_dup)})


def ssc_plan_population(p: int, n: int, algorithm: str = "optimized",
                        n_dup: int = 1) -> set[tuple]:
    """Every collective op shape Algorithms 3-5 can post, as
    ``(verb, comm_size, root, n_elems, itemsize)`` tuples.

    This is the kernel's side of the static schedule-verification contract
    (:func:`repro.analysis.schedule.check_plans`): the grid/row broadcasts
    and column reductions move ``bi*bj`` / ``bk*bj`` / ``bi*bk`` / ``bj*bk``
    blocks — all products of the ``p``-way block dimensions — with roots
    drawn from the mesh coordinates, and Algorithm 5 splits each block into
    ``n_dup`` contiguous parts.  The per-iteration barrier spans the full
    ``p^3`` mesh.  Roots are enumerated over ``range(p)`` (a superset of
    the coordinate-derived roots), so verifying this population proves
    every plan the kernel can request.
    """
    sizes = pipeline_part_sizes(n, p, n_dup if algorithm == "optimized" else 1)
    pop: set[tuple] = {("barrier", p ** 3, 0, 0, 1)}
    for sz in sizes:
        for root in range(p):
            pop.add(("bcast", p, root, sz, 8))
            pop.add(("reduce", p, root, sz, 8))
    return pop


def _ssc_axes(sig):
    """Algorithms 3-5 on the requested mesh; only Alg. 5 sweeps ``N_DUP``."""
    for algorithm in SSC_ALGORITHMS:
        for n_dup in (n_dup_choices() if algorithm == "optimized" else (1,)):
            yield algorithm, sig.mesh, n_dup, 1


def _ssc_default(sig) -> Candidate:
    """Algorithm 5 with ``N_DUP = 4`` ("the results justify our choice of
    using N_DUP = 4"), clamped by the validity rules for tiny blocks."""
    n_dup = min(4, min_block_elems(sig.n, sig.mesh[0]))
    return Candidate(kernel="ssc", algorithm="optimized", mesh=sig.mesh,
                     n_dup=n_dup, ppn=sig.ppn)


@dataclass
class SSCResult(KernelResult):
    """Outcome of :func:`run_ssc` (and, as :class:`~repro.kernels.ssc25d.SSC25DResult`,
    of :func:`~repro.kernels.run_ssc25d`)."""

    d2: np.ndarray | None = None   # assembled D^2 (real mode, last call)
    d3: np.ndarray | None = None   # assembled D^3


SSC = register(KernelSpec(
    name="ssc",
    shape_flags=("p",),
    mesh_shape=lambda p: (p, p, p),
    validate=lambda cand, n, num_channels: validate_ssc_config(
        cand.mesh[0], n, cand.algorithm, cand.n_dup, cand.ppn),
    make_mesh=lambda world, cand: Mesh3D(world, cand.mesh[0],
                                         n_dup=cand.n_dup),
    # Alg. 5's N_DUP is the mesh's duplicate count (make_mesh above).
    call=lambda env, mesh, n, cand, real, d_blk=None: _ALGORITHMS[
        cand.algorithm](env, mesh, n, d_blk, real),
    outputs=("d2", "d3"),
    result_type=SSCResult,
    flops=ssc_flops,
    describe=lambda cand, n: (
        f"run_ssc(p={cand.mesh[0]}, n={n}, {cand.algorithm!r})"),
    population=lambda cand, n: ssc_plan_population(
        cand.mesh[0], n, algorithm=cand.algorithm, n_dup=cand.n_dup),
    axes=_ssc_axes,
    default=_ssc_default,
    estimate=lambda cand, n, params, machine: estimate_ssc_time(
        n, cand.mesh[0], cand.algorithm, cand.n_dup, cand.ppn,
        collective=cand.collective, params=params, machine=machine),
    check_data=check_symmetric,
    # The duplicated communicators' independent channels are pointless on a
    # throttled link, and the blocking schedule is the safer citizen.
    degrade=lambda cand: (dataclasses.replace(cand, algorithm="baseline")
                          if cand.algorithm == "optimized" else None),
))


def run_ssc(
    p: int,
    n: int,
    algorithm: str = "optimized",
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
) -> SSCResult:
    """Run ``iterations`` SymmSquareCube calls on a fresh ``p^3`` world.

    ``algorithm`` is ``"original"`` (Alg. 3), ``"baseline"`` (Alg. 4) or
    ``"optimized"`` (Alg. 5 with ``n_dup`` pipeline stages).  Real mode
    (``d`` given, must be symmetric) verifies nothing itself but returns the
    assembled ``D^2``/``D^3`` for the caller to check; modeled mode times the
    kernel at full paper scale without allocating matrix data.  Each call is
    preceded by a barrier and timed as the max across ranks.

    The keyword options after ``n_dup`` are the shared runner options of
    :func:`repro.kernels.run_kernel` (documented there).  Under ``faults``
    the optimized algorithm degrades gracefully to the blocking baseline
    while a link-degradation window is active (``SSCResult.fallbacks``);
    under ``tune`` the tuner picks the variant, ``N_DUP``, PPN and
    collective schedule, overriding the corresponding arguments.
    """
    cand = Candidate("ssc", algorithm, SSC.mesh_shape(p), n_dup, max(ppn, 1))
    return run_kernel(
        SSC, cand, n, (d,), iterations=iterations, params=params,
        machine=machine, placement=placement, trace=trace, faults=faults,
        verify=verify, verify_plans=verify_plans, tune=tune, tune_db=tune_db,
        deadline=deadline, record=record,
    )
