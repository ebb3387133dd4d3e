"""SUMMA — the 2D algorithm of van de Geijn & Watts (related work, §II).

``C = A B`` on a ``p x p`` mesh: for every block column ``l``, the owners
broadcast ``A[i,l]`` along mesh row ``i`` and ``B[l,j]`` along mesh column
``j``, and every process accumulates ``A[i,l] @ B[l,j]``.  Included as the
reference 2D algorithm the paper positions 3D/2.5D algorithms against, and
as an integration test of the substrate (its results are checked against
dense numpy products).

Three variants, one correctness contract (identical ``C``):

``plain``
    The textbook loop: blocking row broadcast, blocking column broadcast,
    GEMM — every panel's two transfers and its compute fully serialize,
    and each blocking collective pays the per-round synchronization gap.

``streaming``
    Tile-depth pipelining: a sliding window of ``depth`` panels keeps that
    many (row ``Ibcast``, col ``Ibcast``) pairs in flight, so panel
    ``l+1..l+depth-1``'s transfers overlap panel ``l``'s GEMM and each
    other.  All traffic rides fabric lane 0 — in-flight panels share every
    link equally.

``colored``
    Pipelined multicast: the row/col communicators are duplicated
    ``colors`` times (2 or 4) and duplicate ``c`` is pinned to fabric
    channel ``c``; panel ``l`` broadcasts on color ``l % colors``.
    Successive panels' transfers therefore occupy *disjoint* link
    resources instead of fair-sharing one lane — the paper's
    overlapping-communication-with-communication technique applied to
    SUMMA's panel broadcasts.

All three express their broadcasts as :class:`CollectivePlan` schedules
(via :meth:`CommView.bcast` / :meth:`CommView.ibcast`), so they share the
plan cache, the zero-copy executor, and the static schedule verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dense.distribution import block_dim
from repro.dense.mesh import Mesh2D
from repro.kernels.driver import (
    KernelResult,
    KernelSpec,
    register,
    run_kernel,
)
from repro.mpi.world import RankEnv
from repro.netmodel import MachineParams, NetworkParams
from repro.netmodel.analytic import estimate_summa_time
from repro.sim.faults import FaultPlan
from repro.tune.candidates import SUMMA_DEPTH_CHOICES, Candidate
from repro.tune.validity import (
    SUMMA_ALGORITHMS,
    SUMMA_COLOR_CHOICES,
    validate_summa_config,
)

__all__ = [
    "SUMMA_ALGORITHMS",
    "SummaResult",
    "run_summa",
    "summa_pipelined_program",
    "summa_plan_population",
    "summa_channel_claims",
    "summa_program",
]


def summa_program(
    env: RankEnv,
    mesh: Mesh2D,
    n: int,
    a_block: np.ndarray | None,
    b_block: np.ndarray | None,
):
    """Rank program: one plain SUMMA multiplication; returns my ``C[i,j]``."""
    p = mesh.p
    i, j = mesh.coords_of(env.rank)
    bi = block_dim(i, n, p)
    bj = block_dim(j, n, p)
    real = a_block is not None
    c_block = np.zeros((bi, bj)) if real else None
    row = env.view(mesh.row_comm(i))
    col = env.view(mesh.col_comm(j))
    for l in range(p):
        bl = block_dim(l, n, p)
        # Broadcast A[i,l] along row i (root = column l).
        if j == l:
            a_buf = a_block.ravel().copy() if real else None
        else:
            a_buf = np.empty(bi * bl) if real else None
        a_buf = yield from row.bcast(a_buf, nbytes=bi * bl * 8, root=l)
        a_panel = a_buf.reshape(bi, bl) if real else None
        # Broadcast B[l,j] along column j (root = row l).
        if i == l:
            b_buf = b_block.ravel().copy() if real else None
        else:
            b_buf = np.empty(bl * bj) if real else None
        b_buf = yield from col.bcast(b_buf, nbytes=bl * bj * 8, root=l)
        b_panel = b_buf.reshape(bl, bj) if real else None
        yield from env.gemm(a_panel, b_panel, bi, bl, bj,
                            accumulate=c_block, label="summa-gemm")
    return c_block


def summa_pipelined_program(
    env: RankEnv,
    mesh: Mesh2D,
    n: int,
    a_block: np.ndarray | None,
    b_block: np.ndarray | None,
    depth: int = 2,
):
    """Rank program: streaming/colored SUMMA with a ``depth``-panel window.

    ``mesh.n_dup`` is the color count: panel ``l``'s row/col ``Ibcast``
    pair is posted on communicator duplicate ``l % mesh.n_dup`` (the
    streaming variant simply runs with one duplicate).  Up to ``depth``
    panels are in flight at once; panel ``l``'s GEMM waits only on its own
    pair, so later panels' transfers hide behind it.
    """
    p = mesh.p
    colors = mesh.n_dup
    i, j = mesh.coords_of(env.rank)
    bi = block_dim(i, n, p)
    bj = block_dim(j, n, p)
    real = a_block is not None
    c_block = np.zeros((bi, bj)) if real else None
    reqs: list = [None] * p
    posted = 0
    for l in range(p):
        while posted < p and posted < l + depth:
            lp = posted
            bl = block_dim(lp, n, p)
            c = lp % colors
            rowv = env.view(mesh.row_comm(i, c))
            colv = env.view(mesh.col_comm(j, c))
            if j == lp:
                a_buf = a_block.ravel().copy() if real else None
            else:
                a_buf = np.empty(bi * bl) if real else None
            a_req = yield from rowv.ibcast(a_buf, nbytes=bi * bl * 8, root=lp)
            if i == lp:
                b_buf = b_block.ravel().copy() if real else None
            else:
                b_buf = np.empty(bl * bj) if real else None
            b_req = yield from colv.ibcast(b_buf, nbytes=bl * bj * 8, root=lp)
            reqs[lp] = (a_req, b_req)
            posted += 1
        a_req, b_req = reqs[l]
        reqs[l] = None
        bl = block_dim(l, n, p)
        a_buf = yield from a_req.wait()
        b_buf = yield from b_req.wait()
        a_panel = a_buf.reshape(bi, bl) if real else None
        b_panel = b_buf.reshape(bl, bj) if real else None
        yield from env.gemm(a_panel, b_panel, bi, bl, bj,
                            accumulate=c_block, label="summa-gemm")
    return c_block


def summa_plan_population(p: int, n: int, algorithm: str = "plain",
                          colors: int = 1, depth: int = 1) -> list[tuple]:
    """Every collective any rank posts, as ``(verb, size, root, n_elems,
    itemsize)`` tuples — the kernel side of the static-verification
    contract (:func:`repro.analysis.schedule.check_plans` rebuilds and
    proves each one's cross-rank plan set).

    All three variants post the same *population*: one row broadcast of
    ``A[i,l]`` and one column broadcast of ``B[l,j]`` per panel ``l``, on
    ``p``-rank communicators rooted at local rank ``l``.  The variants
    differ only in blocking/nonblocking posting and in which communicator
    duplicate carries each panel — neither changes the schedule shapes.
    """
    validate_summa_config(p, n, algorithm, colors, depth, 1)
    pop = set()
    for l in range(p):
        bl = block_dim(l, n, p)
        for i in range(p):
            pop.add(("bcast", p, l, block_dim(i, n, p) * bl, 8))
        for j in range(p):
            pop.add(("bcast", p, l, bl * block_dim(j, n, p), 8))
    return sorted(pop)


def summa_channel_claims(p: int, algorithm: str = "plain", colors: int = 1,
                         depth: int = 1) -> list[tuple[int, int]]:
    """The kernel's channel-claim declaration for the RA308 verifier check.

    Returns ``(color, channel)`` pairs: the colored variant claims that
    communicator duplicate ``c`` rides fabric lane ``c`` for every color,
    and that concurrently-in-flight panels (any window of ``min(depth,
    colors)`` consecutive panels) occupy pairwise-distinct lanes.  The
    verifier checks the pairs are in range and collision-free.
    """
    if algorithm not in SUMMA_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm != "colored":
        return [(0, 0)]
    return [(c, c) for c in range(colors)]


def _summa_call(env, mesh, n, cand, real, a_blk=None, b_blk=None):
    """The generator of one SUMMA product under ``cand``."""
    if cand.algorithm == "plain":
        return summa_program(env, mesh, n, a_blk, b_blk)
    return summa_pipelined_program(env, mesh, n, a_blk, b_blk, cand.depth)


def _summa_axes(sig):
    """Variant x colors x window depth on the requested ``p x p`` mesh."""
    for algorithm in SUMMA_ALGORITHMS:
        colors_choices = SUMMA_COLOR_CHOICES if algorithm == "colored" else (1,)
        depths = (1,) if algorithm == "plain" else SUMMA_DEPTH_CHOICES
        for colors in colors_choices:
            for depth in depths:
                yield algorithm, sig.mesh, colors, depth


def _lanes(cand) -> int:
    """Fabric channels ``cand`` pins traffic to: one per color."""
    return cand.n_dup if cand.algorithm == "colored" else 1


def _channel_checks(cand, n, params, seen):
    """Static check beyond the collectives: RA308 over the color->lane claims."""
    from repro.analysis.schedule import verify_channel_claims

    p = cand.mesh[0]
    claims = summa_channel_claims(p, algorithm=cand.algorithm,
                                  colors=cand.n_dup, depth=cand.depth)
    # Colored candidates run on a fabric widened to their color count
    # (repro.tune.candidates.effective_params).
    yield "channel_checks", verify_channel_claims(
        claims, max(params.num_channels, _lanes(cand)),
        f"summa[{cand.algorithm},p={p},colors={cand.n_dup},"
        f"depth={cand.depth}]")


@dataclass
class SummaResult(KernelResult):
    """Outcome of :func:`run_summa`."""

    c: np.ndarray | None = None    # assembled product (real mode)

    @property
    def algorithm(self) -> str:
        return self.config.algorithm

    @property
    def colors(self) -> int:
        return self.config.n_dup

    @property
    def depth(self) -> int:
        return self.config.depth


SUMMA = register(KernelSpec(
    name="summa",
    shape_flags=("p",),
    mesh_shape=lambda p: (p, p, 1),
    validate=lambda cand, n, num_channels: validate_summa_config(
        cand.mesh[0], n, cand.algorithm, cand.n_dup, cand.depth, cand.ppn,
        num_channels=num_channels),
    make_mesh=lambda world, cand: (
        Mesh2D(world, cand.mesh[0], n_dup=cand.n_dup,
               channels=tuple(range(cand.n_dup)))
        if cand.algorithm == "colored" else Mesh2D(world, cand.mesh[0])),
    call=_summa_call,
    outputs=("c",),
    result_type=SummaResult,
    flops=lambda n: 2.0 * float(n) ** 3,
    describe=lambda cand, n: (
        f"run_summa(p={cand.mesh[0]}, n={n}, {cand.algorithm!r})"),
    population=lambda cand, n: summa_plan_population(
        cand.mesh[0], n, algorithm=cand.algorithm, colors=cand.n_dup,
        depth=cand.depth),
    axes=_summa_axes,
    # The textbook blocking variant is the tuning baseline.
    default=lambda sig: Candidate(kernel="summa", algorithm="plain",
                                  mesh=sig.mesh, n_dup=1, ppn=sig.ppn),
    estimate=lambda cand, n, params, machine: estimate_summa_time(
        n, cand.mesh[0], cand.algorithm, cand.n_dup, cand.depth, cand.ppn,
        collective=cand.collective, params=params, machine=machine),
    # One product per call, back to back: a leading barrier would put a
    # synchronization the textbook algorithm does not have on the clock.
    barrier=False,
    lanes=_lanes,
    static_checks=_channel_checks,
))


def run_summa(
    p: int,
    n: int,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    *,
    algorithm: str = "plain",
    colors: int | None = None,
    depth: int | None = None,
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
) -> SummaResult:
    """Run SUMMA products on a fresh world; assemble C in real mode.

    ``algorithm`` selects the variant (see the module docstring);
    ``colors`` defaults to 2 for ``colored`` and is fixed at 1 otherwise;
    ``depth`` defaults to a ``min(2, p)``-panel window for the pipelined
    variants.  When ``params`` is omitted the colored variant builds a
    fabric with ``num_channels = colors``; an explicit ``params`` must
    already provide enough lanes.  A recorded colored run replays like any
    other: every flow row carries its lane.

    The keyword options from ``ppn`` on are the shared runner options of
    :func:`repro.kernels.run_kernel`.  Under ``tune`` the tuner picks the
    variant, colors, depth and PPN.
    """
    if colors is None:
        colors = 2 if algorithm == "colored" else 1
    if depth is None:
        depth = 1 if algorithm == "plain" else min(2, p)
    cand = Candidate("summa", algorithm, SUMMA.mesh_shape(p), colors,
                     max(ppn, 1), depth=depth)
    return run_kernel(
        SUMMA, cand, n, (a, b), iterations=iterations, params=params,
        machine=machine, placement=placement, trace=trace, faults=faults,
        verify=verify, verify_plans=verify_plans, tune=tune, tune_db=tune_db,
        deadline=deadline, record=record,
    )
