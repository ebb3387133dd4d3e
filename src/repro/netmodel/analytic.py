"""Closed-form alpha-beta models used by the paper's analysis (§V-A, Table IV).

The paper models the time to send an ``n``-byte message as ``alpha + n*beta``
and assumes recursive doubling for broadcast and Rabenseifner's algorithm for
reduction, giving::

    T_bcast  = alpha * (log2(p) + p - 1) + 2 * beta * (p - 1) * n / p
    T_reduce = 2 * alpha * log2(p)       + 2 * beta * (p - 1) * n / p

These functions regenerate the §V-A numbers (T_p2p = 2.324 ms etc. for
n = 27.89 MB, p = 4, beta = 1/12000 MB/s) and the "estimated" columns of
Table IV.
"""

from __future__ import annotations

import math

from repro.netmodel.params import MachineParams, NetworkParams
from repro.util import check_positive


def t_point_to_point(nbytes: float, alpha: float, beta: float) -> float:
    """``alpha + n*beta`` — the paper's point-to-point model."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    return alpha + nbytes * beta


def t_bcast_scatter_allgather(
    nbytes: float, p: int, alpha: float, beta: float
) -> float:
    """Long-message broadcast model (recursive-doubling / scatter-allgather).

    ``alpha*(log2(p) + p - 1) + 2*beta*(p-1)*n/p`` — §V-A of the paper.

    Degenerate cases are explicit: ``p == 1`` has nobody to talk to
    (0.0), and ``nbytes == 0`` pays only the latency term (bit-identical
    to the full formula with a zero bandwidth term — the early return
    documents the contract rather than changing it).
    """
    check_positive("p", p)
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if p == 1:
        return 0.0
    if nbytes == 0:
        return alpha * (math.log2(p) + p - 1)
    return alpha * (math.log2(p) + p - 1) + 2.0 * beta * (p - 1) * nbytes / p


def t_reduce_rabenseifner(nbytes: float, p: int, alpha: float, beta: float) -> float:
    """Long-message reduction model (Rabenseifner).

    ``2*alpha*log2(p) + 2*beta*(p-1)*n/p`` — §V-A of the paper (compute term
    omitted, as in the paper).

    Degenerate cases mirror :func:`t_bcast_scatter_allgather`: ``p == 1``
    reduces onto itself (0.0); ``nbytes == 0`` pays only the latency term.
    """
    check_positive("p", p)
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if p == 1:
        return 0.0
    if nbytes == 0:
        return 2.0 * alpha * math.log2(p)
    return 2.0 * alpha * math.log2(p) + 2.0 * beta * (p - 1) * nbytes / p


def collective_volume_long_message(nbytes: float, p: int) -> float:
    """Per-process communicated volume ``2*(p-1)*n/p`` of the long-message
    broadcast/reduction algorithms (used to convert times to the bandwidths
    plotted in Fig. 5)."""
    check_positive("p", p)
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    return 2.0 * (p - 1) * nbytes / p


def effective_p2p_bandwidth(nbytes: float, params: NetworkParams) -> float:
    """Model-predicted single-flow bandwidth ``n / (overheads + n/flow_cap(n))``.

    This is the smooth curve behind the simulated Fig. 3 PPN=1 series; tests
    compare the simulation against it.
    """
    if nbytes <= 0:
        return 0.0
    p = params
    overhead = p.send_overhead + p.recv_overhead + p.alpha
    if nbytes > p.rendezvous_threshold:
        overhead += p.rendezvous_extra
    return nbytes / (overhead + nbytes / p.flow_cap(nbytes))


def baseline_ssc_comm_time_model(
    block_bytes: float, p: int, alpha: float, beta: float
) -> dict:
    """§V-A composite model of the baseline SymmSquareCube communication time.

    ``T = 2*(T_p2p + T_reduce) + 3*T_bcast`` with the paper's collective
    models.  Returns the individual terms too, so the §V-A experiment can
    print the same breakdown as the paper (T_p2p = 2.324e-3 etc.).
    """
    t_p2p = t_point_to_point(block_bytes, alpha, beta)
    t_bc = t_bcast_scatter_allgather(block_bytes, p, alpha, beta)
    t_rd = t_reduce_rabenseifner(block_bytes, p, alpha, beta)
    return {
        "T_p2p": t_p2p,
        "T_bcast": t_bc,
        "T_reduce": t_rd,
        "T_baseline": 2.0 * (t_p2p + t_rd) + 3.0 * t_bc,
    }


# ---------------------------------------------------------------------------
# candidate-scoring models for the autotuner (repro.tune)
# ---------------------------------------------------------------------------
#
# These are deliberately coarse: the tuner's first stage only needs to RANK
# configurations well enough to prune the candidate space before the
# discrete-event simulator scores the shortlist exactly.  Each model splits
# every operation into a latency term L (paid once per message, so N_DUP
# pipelining multiplies it) and a bandwidth term W (partially hidden by the
# overlap, see ``overlapped_time``).


def overlapped_time(latency: float, bandwidth: float, n_dup: int,
                    pipeline_fraction: float) -> float:
    """Time of a phase split into ``n_dup`` pipelined parts.

    Every part pays the latency term (``latency * n_dup``), while up to
    ``pipeline_fraction`` of the bandwidth term hides behind neighbouring
    parts/phases as ``n_dup`` grows: ``W * (1 - f * (1 - 1/n_dup))``.
    ``n_dup = 1`` returns exactly ``latency + bandwidth``; large ``n_dup``
    trades hidden bandwidth for extra latency — the model reproduces the
    paper's Table II plateau-then-flatten shape.
    """
    check_positive("n_dup", n_dup)
    if not 0.0 <= pipeline_fraction <= 1.0:
        raise ValueError(f"pipeline_fraction must be in [0, 1], got {pipeline_fraction}")
    hidden = pipeline_fraction * (1.0 - 1.0 / n_dup)
    return latency * n_dup + bandwidth * (1.0 - hidden)


def effective_collective_bandwidth(part_bytes: float, p: int, ppn: int,
                                   params: NetworkParams) -> float:
    """Per-process achieved rate inside a ``p``-rank long-message collective.

    Inter-node flows are capped by the single-flow curve ``flow_cap``, the
    per-process injection limit (§III-B), and NIC sharing between the
    node's co-resident active processes; with block placement, roughly
    ``min(ppn-1, p-1)/(p-1)`` of a rank's peers are on-node and use the
    shared-memory path instead.
    """
    check_positive("p", p)
    check_positive("ppn", ppn)
    active = max(1, min(ppn, p))
    inter = min(
        params.flow_cap(part_bytes),
        params.process_injection_bandwidth,
        params.nic_bandwidth / active,
    )
    if p == 1:
        return inter
    f_intra = min(ppn - 1, p - 1) / (p - 1)
    intra = min(params.shm_cap(part_bytes), params.shm_bandwidth / active)
    return f_intra * intra + (1.0 - f_intra) * inter


#: Fraction of SymmSquareCube bandwidth time the Alg. 5 cross-operation
#: pipeline can hide (grid-bcast with row-bcast, reduce with bcast/p2p).
SSC_PIPELINE_FRACTION = 0.5
#: Alg. 6 only overlaps each collective with itself — smaller gains.
SSC25D_PIPELINE_FRACTION = 0.25


def _collective_terms(nbytes: float, p: int, collective: str, kind: str,
                      alpha: float, beta: float) -> tuple[float, float]:
    """(latency, bandwidth) split of one collective under an override."""
    if p == 1:
        return 0.0, 0.0
    binomial = collective == "binomial" or (
        collective == "auto" and p <= 2
    )
    if binomial:
        rounds = math.ceil(math.log2(p))
        return rounds * alpha, rounds * nbytes * beta
    if kind == "bcast":
        return alpha * (math.log2(p) + p - 1), 2.0 * beta * (p - 1) * nbytes / p
    return 2.0 * alpha * math.log2(p), 2.0 * beta * (p - 1) * nbytes / p


def estimate_ssc_time(
    n: int,
    p: int,
    algorithm: str,
    n_dup: int,
    ppn: int,
    collective: str = "auto",
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
) -> float:
    """Modeled per-call time of SymmSquareCube (Algs. 3-5) — tuner stage 1.

    Composite of the §V-A recipe (2 point-to-points + 2 reductions +
    3 broadcasts on ``(n/p)^2`` blocks), an effective per-process bandwidth
    that accounts for PPN (injection cap, NIC sharing, shm peers), the
    reduction-combine rate, Ireduce posting costs, and the
    :func:`overlapped_time` pipeline transformation for ``n_dup``.
    """
    params = params or NetworkParams()
    machine = machine or MachineParams()
    block_elems = (n / p) ** 2
    block_bytes = block_elems * 8.0
    part_bytes = block_bytes / n_dup
    alpha = params.alpha
    bw = effective_collective_bandwidth(part_bytes, p, ppn, params)
    beta = 1.0 / bw
    # Reductions additionally pay the per-byte combine on the critical path.
    beta_red = 1.0 / min(bw, 4.0 / 3.0 * params.combine_bandwidth)
    bc_l, bc_w = _collective_terms(block_bytes, p, collective, "bcast",
                                   alpha, beta)
    rd_l, rd_w = _collective_terms(block_bytes, p, collective, "reduce",
                                   alpha, beta_red)
    p2p_l, p2p_w = alpha, block_bytes * beta
    latency = 3.0 * bc_l + 2.0 * rd_l + 2.0 * p2p_l
    bandwidth = 3.0 * bc_w + 2.0 * rd_w + 2.0 * p2p_w
    if algorithm == "original":
        # Alg. 3's extra transpose exchange before the second row broadcast.
        latency += p2p_l
        bandwidth += p2p_w
    if algorithm == "optimized":
        t_comm = overlapped_time(latency, bandwidth, n_dup,
                                 SSC_PIPELINE_FRACTION)
    else:
        t_comm = latency + bandwidth
        # Blocking collectives synchronize at every internal round.
        t_comm += 5.0 * math.ceil(math.log2(max(p, 2))) * params.blocking_round_gap
    t_post = 2.0 * (params.ireduce_post_base
                    + block_bytes * params.ireduce_post_per_byte)
    t_comp = 4.0 * (n / p) ** 3 / machine.process_flops(ppn)
    return t_comp + t_comm + t_post


def estimate_summa_time(
    n: int,
    p: int,
    algorithm: str = "plain",
    colors: int = 1,
    depth: int = 1,
    ppn: int = 1,
    collective: str = "auto",
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
) -> float:
    """Modeled per-call time of the SUMMA family — tuner stage 1.

    ``p`` panels, each one row broadcast + one column broadcast of a
    ``(n/p)^2`` block followed by the panel GEMM.  ``plain`` serializes
    everything and pays the blocking per-round gap; the pipelined variants
    keep a ``depth``-panel ``Ibcast`` window in flight, so the steady state
    runs at ``max(gemm, comm)`` per panel with in-flight transfers either
    fair-sharing one lane (``streaming`` — concurrent flows aggregate
    toward the NIC peak) or riding disjoint ``1/colors``-capacity lanes
    (``colored`` — full aggregation while the window is color-covered, but
    fill/drain panels run alone on a fractional lane).
    """
    params = params or NetworkParams()
    machine = machine or MachineParams()
    t_gemm = 2.0 * (n / p) ** 3 / machine.process_flops(ppn)
    if p == 1:
        return t_gemm
    block_bytes = (n / p) ** 2 * 8.0
    alpha = params.alpha
    bw = effective_collective_bandwidth(block_bytes, p, ppn, params)
    beta = 1.0 / bw
    bc_l, bc_w = _collective_terms(block_bytes, p, collective, "bcast",
                                   alpha, beta)
    if algorithm == "plain":
        gaps = 0.0
        if block_bytes / p > params.rendezvous_threshold:
            gaps = 2.0 * math.ceil(math.log2(p)) * params.blocking_round_gap
        return p * (2.0 * (bc_l + bc_w) + gaps + t_gemm)
    window = min(max(depth, 1), p)
    if colors > 1:
        agg = min(window, colors) * params.nic_bandwidth / colors
    else:
        agg = min(window * bw, params.nic_bandwidth)
    boost = max(1.0, agg / bw)
    t_fill = 2.0 * bc_l + 2.0 * bc_w / boost
    t_steady = max(t_gemm, 2.0 * bc_l / window + 2.0 * bc_w / boost)
    t = t_fill + p * t_steady
    if colors > 1:
        # Drain: the last panels run alone on a 1/colors-capacity lane.
        t += (1.0 - 1.0 / colors) * 2.0 * bc_w
    return t


def estimate_ssc25d_time(
    n: int,
    q: int,
    c: int,
    n_dup: int,
    ppn: int,
    collective: str = "auto",
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
) -> float:
    """Modeled per-call time of 2.5D SymmSquareCube (Alg. 6) — tuner stage 1.

    One grid broadcast + one allreduce + one reduce over the ``c`` layers on
    ``(n/q)^2`` blocks, plus ``2 q/c`` Cannon shift steps of neighbour
    point-to-points, plus the two Cannon multiply passes.  ``n_dup`` applies
    the self-overlap-only pipeline fraction.
    """
    params = params or NetworkParams()
    machine = machine or MachineParams()
    block_bytes = (n / q) ** 2 * 8.0
    part_bytes = block_bytes / n_dup
    alpha = params.alpha
    bw = effective_collective_bandwidth(part_bytes, c, ppn, params)
    beta = 1.0 / bw
    beta_red = 1.0 / min(bw, 4.0 / 3.0 * params.combine_bandwidth)
    bc_l, bc_w = _collective_terms(block_bytes, c, collective, "bcast",
                                   alpha, beta)
    rd_l, rd_w = _collective_terms(block_bytes, c, collective, "reduce",
                                   alpha, beta_red)
    # Allreduce ~ reduce-scatter + allgather: twice the reduce volume.
    latency = bc_l + 3.0 * rd_l
    bandwidth = bc_w + 3.0 * rd_w
    t_coll = overlapped_time(latency, bandwidth, n_dup,
                             SSC25D_PIPELINE_FRACTION)
    s = q // c
    shift_bw = effective_collective_bandwidth(block_bytes, q * q, ppn, params)
    t_cannon = 2.0 * s * (alpha + block_bytes / shift_bw)
    t_post = 2.0 * (params.ireduce_post_base
                    + block_bytes * params.ireduce_post_per_byte)
    t_comp = 4.0 * s * (n / q) ** 3 / machine.process_flops(ppn)
    return t_comp + t_coll + t_cannon + t_post
