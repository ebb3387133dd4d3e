"""Per-rank schedule generation for each collective algorithm.

All functions take the communicator size ``p``, the calling rank's *local*
rank ``me`` (and ``root`` where applicable), and the logical element count
``n``; they return ``list[list[op]]`` (rounds of ops) with ops expressed as
element ranges of the collective's logical buffer.  Peers in ops are local
ranks.  Schedules on different ranks are mutually consistent: every ``send``
has exactly one matching ``copy``/``add`` on the peer in a compatible round
order (checked exhaustively by :func:`validate_schedules`, which the test
suite runs over many ``(p, root)`` combinations).

Notation: ``rel = (me - root) % p`` is the root-relative rank used by tree
algorithms.
"""

from __future__ import annotations

import math

Op = tuple  # ("send"|"copy"|"add", peer, lo, hi)
Schedule = list  # list of rounds; each round is a list[Op]


def _ceil_log2(p: int) -> int:
    return max(0, (p - 1).bit_length())


def _seg_start(j: int, n: int, p: int) -> int:
    """Start element of segment ``j`` when ``n`` elements split into ``p``."""
    return (j * n) // p


def _check(p: int, me: int, n: int, root: int = 0) -> None:
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if not 0 <= me < p:
        raise ValueError(f"me={me} out of range for p={p}")
    if not 0 <= root < p:
        raise ValueError(f"root={root} out of range for p={p}")
    if n < 0:
        raise ValueError(f"negative element count {n}")


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------


def bcast_binomial(p: int, root: int, me: int, n: int) -> Schedule:
    """Binomial-tree broadcast (short messages / tiny communicators).

    ``ceil(log2 p)`` rounds; every message carries the full ``n`` elements.
    """
    _check(p, me, n, root)
    rel = (me - root) % p
    rounds: Schedule = []
    for t in range(_ceil_log2(p)):
        d = 1 << t
        ops: list[Op] = []
        if rel < d and rel + d < p:
            ops.append(("send", (rel + d + root) % p, 0, n))
        elif d <= rel < 2 * d:
            ops.append(("copy", (rel - d + root) % p, 0, n))
        rounds.append(ops)
    return rounds


def _scatter_binomial_rounds(p: int, root: int, me: int, n: int) -> Schedule:
    """Binomial scatter of the ``p`` buffer segments (segment ``j`` to rel ``j``)."""
    rel = (me - root) % p
    T = _ceil_log2(p)
    rounds: Schedule = []
    for t in range(T):
        mask = 1 << (T - 1 - t)
        ops: list[Op] = []
        if rel % (2 * mask) == 0:
            if rel + mask < p:
                s_lo, s_hi = rel + mask, min(rel + 2 * mask, p)
                ops.append(
                    (
                        "send",
                        (rel + mask + root) % p,
                        _seg_start(s_lo, n, p),
                        _seg_start(s_hi, n, p),
                    )
                )
        elif rel % mask == 0:
            s_hi = min(rel + mask, p)
            ops.append(
                (
                    "copy",
                    (rel - mask + root) % p,
                    _seg_start(rel, n, p),
                    _seg_start(s_hi, n, p),
                )
            )
        rounds.append(ops)
    return rounds


def allgather_ring(p: int, me: int, n: int, root: int = 0) -> Schedule:
    """Ring allgather: ``p - 1`` rounds, segment ``j`` initially on rel ``j``.

    Also the second phase of the long-message broadcast and allreduce.
    """
    _check(p, me, n, root)
    rel = (me - root) % p
    rounds: Schedule = []
    right = (rel + 1) % p
    left = (rel - 1) % p
    for t in range(p - 1):
        s_send = (rel - t) % p
        s_recv = (rel - t - 1) % p
        rounds.append(
            [
                (
                    "send",
                    (right + root) % p,
                    _seg_start(s_send, n, p),
                    _seg_start(s_send + 1, n, p),
                ),
                (
                    "copy",
                    (left + root) % p,
                    _seg_start(s_recv, n, p),
                    _seg_start(s_recv + 1, n, p),
                ),
            ]
        )
    return rounds


def bcast_long(p: int, root: int, me: int, n: int) -> Schedule:
    """Long-message broadcast: binomial scatter + ring allgather.

    Per-process communicated volume ``2 (p-1) n / p`` — the model the paper
    uses for its bandwidth analysis (van de Geijn / MPICH long broadcast).
    """
    _check(p, me, n, root)
    if p == 1:
        return []
    return _scatter_binomial_rounds(p, root, me, n) + allgather_ring(p, me, n, root)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def reduce_binomial(p: int, root: int, me: int, n: int) -> Schedule:
    """Binomial-tree reduction (short messages); full buffer per message."""
    _check(p, me, n, root)
    rel = (me - root) % p
    rounds: Schedule = []
    done = False
    for t in range(_ceil_log2(p)):
        d = 1 << t
        ops: list[Op] = []
        if not done:
            if rel % (2 * d) == d:
                ops.append(("send", (rel - d + root) % p, 0, n))
                done = True
            elif rel % (2 * d) == 0 and rel + d < p:
                ops.append(("add", (rel + d + root) % p, 0, n))
        rounds.append(ops)
    return rounds


def _fold_params(p: int) -> tuple[int, int]:
    """(r, p2) with ``p2 = 2^floor(log2 p)`` survivors and ``r = p - p2`` folds."""
    p2 = 1 << (p.bit_length() - 1)
    if p2 == p:
        return 0, p
    return p - p2, p2


def _new_rel(rel: int, r: int) -> int | None:
    """Post-fold rank of root-relative rank ``rel``; None if it dropped out."""
    if rel < 2 * r:
        return rel // 2 if rel % 2 == 0 else None
    return rel - r


def _orig_rel(new: int, r: int) -> int:
    """Inverse of :func:`_new_rel` for survivors."""
    return 2 * new if new < r else new + r


def reduce_rabenseifner(p: int, root: int, me: int, n: int) -> Schedule:
    """Rabenseifner's long-message reduce-to-root.

    Fold to a power of two, recursive-halving reduce-scatter on the ``p2``
    survivors, binomial gather of the owned segments to the root.  Matches
    the paper's §V-A model ``2 alpha log2 p + 2 beta (p-1) n / p`` (plus the
    combine term the paper drops).
    """
    _check(p, me, n, root)
    if p == 1:
        return []
    rel = (me - root) % p
    r, p2 = _fold_params(p)
    rounds: Schedule = []
    # Pre-round: odd rels in [0, 2r) fold into their even neighbour.
    if r > 0:
        ops: list[Op] = []
        if rel < 2 * r:
            if rel % 2 == 1:
                ops.append(("send", (rel - 1 + root) % p, 0, n))
            else:
                ops.append(("add", (rel + 1 + root) % p, 0, n))
        rounds.append(ops)
    nr = _new_rel(rel, r)
    if nr is None:  # dropped out after the fold
        return rounds

    def glob(new: int) -> int:
        return (_orig_rel(new, r) + root) % p

    # Recursive-halving reduce-scatter over p2 segments.
    slo, shi = 0, p2
    d = p2 >> 1
    while d >= 1:
        mid = slo + (shi - slo) // 2
        partner = nr ^ d
        if nr & d == 0:
            send_lo, send_hi = mid, shi
            keep_lo, keep_hi = slo, mid
        else:
            send_lo, send_hi = slo, mid
            keep_lo, keep_hi = mid, shi
        rounds.append(
            [
                (
                    "send",
                    glob(partner),
                    _seg_start(send_lo, n, p2),
                    _seg_start(send_hi, n, p2),
                ),
                (
                    "add",
                    glob(partner),
                    _seg_start(keep_lo, n, p2),
                    _seg_start(keep_hi, n, p2),
                ),
            ]
        )
        slo, shi = keep_lo, keep_hi
        d >>= 1
    # Binomial gather of owned segments to new-rank 0 (the root).
    own_lo, own_hi = nr, nr + 1  # segment units
    mask = 1
    sent = False
    while mask < p2:
        if not sent:
            if nr & mask:
                rounds.append(
                    [
                        (
                            "send",
                            glob(nr - mask),
                            _seg_start(own_lo, n, p2),
                            _seg_start(own_hi, n, p2),
                        )
                    ]
                )
                sent = True
            else:
                src = nr + mask
                if src < p2:
                    recv_lo, recv_hi = src, min(src + mask, p2)
                    rounds.append(
                        [
                            (
                                "copy",
                                glob(src),
                                _seg_start(recv_lo, n, p2),
                                _seg_start(recv_hi, n, p2),
                            )
                        ]
                    )
                    own_hi = recv_hi
                else:
                    rounds.append([])
        else:
            rounds.append([])
        mask <<= 1
    return rounds


def _reduce_scatter_ring_rounds(p: int, root: int, me: int, n: int) -> Schedule:
    """Ring reduce-scatter: ``p - 1`` rounds of ``n/p`` segments.

    Root-relative rank ``r`` ends owning fully-reduced segment ``r``.  Works
    for any ``p`` with no power-of-two fold (each process sends and combines
    exactly ``(p-1) n / p`` elements), which is why the long-message
    reduction uses it for non-power-of-two communicators.
    """
    rel = (me - root) % p
    right = (rel + 1) % p
    left = (rel - 1) % p
    rounds: Schedule = []
    for t in range(p - 1):
        s_send = (rel - 1 - t) % p
        s_recv = (rel - 2 - t) % p
        rounds.append(
            [
                (
                    "send",
                    (right + root) % p,
                    _seg_start(s_send, n, p),
                    _seg_start(s_send + 1, n, p),
                ),
                (
                    "add",
                    (left + root) % p,
                    _seg_start(s_recv, n, p),
                    _seg_start(s_recv + 1, n, p),
                ),
            ]
        )
    return rounds


def _gather_segments_binomial(p: int, root: int, me: int, n: int) -> Schedule:
    """Binomial gather of per-rank segments to the root (any ``p``).

    Assumes root-relative rank ``r`` owns segment ``r`` (the ring
    reduce-scatter postcondition); rank 0 (the root) ends with ``[0, p)``.
    """
    rel = (me - root) % p
    rounds: Schedule = []
    own_lo, own_hi = rel, rel + 1  # segment units
    mask = 1
    sent = False
    while mask < p:
        ops: list[Op] = []
        if not sent:
            if rel & mask:
                ops.append(
                    (
                        "send",
                        (rel - mask + root) % p,
                        _seg_start(own_lo, n, p),
                        _seg_start(min(own_hi, p), n, p),
                    )
                )
                sent = True
            elif rel + mask < p:
                src = rel + mask
                recv_hi = min(src + mask, p)
                ops.append(
                    (
                        "copy",
                        (src + root) % p,
                        _seg_start(src, n, p),
                        _seg_start(recv_hi, n, p),
                    )
                )
                own_hi = recv_hi
        rounds.append(ops)
        mask <<= 1
    return rounds


def reduce_ring(p: int, root: int, me: int, n: int) -> Schedule:
    """Long-message reduce for any ``p``: ring reduce-scatter + binomial gather."""
    _check(p, me, n, root)
    if p == 1:
        return []
    return _reduce_scatter_ring_rounds(p, root, me, n) + _gather_segments_binomial(
        p, root, me, n
    )


def allreduce_ring(p: int, me: int, n: int) -> Schedule:
    """Long-message allreduce for any ``p``: ring reduce-scatter + ring allgather."""
    _check(p, me, n)
    if p == 1:
        return []
    return _reduce_scatter_ring_rounds(p, 0, me, n) + allgather_ring(p, me, n)


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------


def allreduce_short(p: int, me: int, n: int) -> Schedule:
    """Short-message allreduce: binomial reduce to 0 + binomial broadcast."""
    _check(p, me, n)
    return reduce_binomial(p, 0, me, n) + bcast_binomial(p, 0, me, n)


def allreduce_long(p: int, me: int, n: int) -> Schedule:
    """Long-message allreduce: fold + reduce-scatter + ring allgather + unfold.

    Per-process volume ``2 (p-1) n / p`` on the power-of-two survivors, plus
    ``n`` each way for folded ranks (the standard MPICH non-power-of-two
    penalty).
    """
    _check(p, me, n)
    if p == 1:
        return []
    rel = me
    r, p2 = _fold_params(p)
    rounds: Schedule = []
    if r > 0:
        ops: list[Op] = []
        if rel < 2 * r:
            if rel % 2 == 1:
                ops.append(("send", rel - 1, 0, n))
            else:
                ops.append(("add", rel + 1, 0, n))
        rounds.append(ops)
    nr = _new_rel(rel, r)
    if nr is not None:

        def glob(new: int) -> int:
            return _orig_rel(new, r)

        slo, shi = 0, p2
        d = p2 >> 1
        while d >= 1:
            mid = slo + (shi - slo) // 2
            partner = nr ^ d
            if nr & d == 0:
                send_lo, send_hi, keep_lo, keep_hi = mid, shi, slo, mid
            else:
                send_lo, send_hi, keep_lo, keep_hi = slo, mid, mid, shi
            rounds.append(
                [
                    (
                        "send",
                        glob(partner),
                        _seg_start(send_lo, n, p2),
                        _seg_start(send_hi, n, p2),
                    ),
                    (
                        "add",
                        glob(partner),
                        _seg_start(keep_lo, n, p2),
                        _seg_start(keep_hi, n, p2),
                    ),
                ]
            )
            slo, shi = keep_lo, keep_hi
            d >>= 1
        # Ring allgather among survivors (segment nr on new-rank nr).
        right, left = (nr + 1) % p2, (nr - 1) % p2
        for t in range(p2 - 1):
            s_send = (nr - t) % p2
            s_recv = (nr - t - 1) % p2
            rounds.append(
                [
                    (
                        "send",
                        glob(right),
                        _seg_start(s_send, n, p2),
                        _seg_start(s_send + 1, n, p2),
                    ),
                    (
                        "copy",
                        glob(left),
                        _seg_start(s_recv, n, p2),
                        _seg_start(s_recv + 1, n, p2),
                    ),
                ]
            )
    # Unfold: survivors return the full result to their folded partner.
    if r > 0:
        ops = []
        if rel < 2 * r:
            if rel % 2 == 0:
                ops.append(("send", rel + 1, 0, n))
            else:
                ops.append(("copy", rel - 1, 0, n))
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


def barrier_dissemination(p: int, me: int) -> Schedule:
    """Dissemination barrier: ``ceil(log2 p)`` rounds of zero-byte exchanges."""
    _check(p, me, 0)
    rounds: Schedule = []
    for t in range(_ceil_log2(p)):
        d = 1 << t
        rounds.append(
            [
                ("send", (me + d) % p, 0, 0),
                ("copy", (me - d) % p, 0, 0),
            ]
        )
    return rounds


# ---------------------------------------------------------------------------
# verification helpers (used by the tests, not the runtime path)
# ---------------------------------------------------------------------------


def schedule_volume_bytes(schedule: Schedule, itemsize: int = 8) -> int:
    """Total bytes this rank *sends* across the schedule."""
    total = 0
    for rnd in schedule:
        for op in rnd:
            if op[0] == "send":
                total += (op[3] - op[2]) * itemsize
    return total


def validate_schedules(make, p: int, n: int) -> None:
    """Cross-check the per-rank schedules of one collective for consistency.

    ``make(me)`` must return rank ``me``'s schedule.  Verifies that, pairing
    messages per (src, dst) in round order, every send matches exactly one
    receive with an identical element range.  Raises ``AssertionError`` on
    any mismatch — the hypothesis tests sweep this over many shapes.
    """
    sends: dict[tuple[int, int], list] = {}
    recvs: dict[tuple[int, int], list] = {}
    for me in range(p):
        sched = make(me)
        for rnd_i, rnd in enumerate(sched):
            for op in rnd:
                kind, peer, lo, hi = op
                if not (0 <= lo <= hi <= max(n, 1)):
                    raise AssertionError(f"bad range {op} (rank {me})")
                if not 0 <= peer < p:
                    raise AssertionError(f"bad peer {op} (rank {me})")
                if kind == "send":
                    sends.setdefault((me, peer), []).append((rnd_i, lo, hi))
                elif kind in ("copy", "add"):
                    recvs.setdefault((peer, me), []).append((rnd_i, lo, hi))
                else:
                    raise AssertionError(f"unknown op kind {kind!r}")
    if set(sends) != set(recvs):
        raise AssertionError(
            f"unpaired channels: sends={sorted(sends)} recvs={sorted(recvs)}"
        )
    for chan, slist in sends.items():
        rlist = recvs[chan]
        if len(slist) != len(rlist):
            raise AssertionError(f"channel {chan}: {len(slist)} sends, {len(rlist)} recvs")
        for (_, slo, shi), (_, rlo, rhi) in zip(slist, rlist):
            if (slo, shi) != (rlo, rhi):
                raise AssertionError(
                    f"channel {chan}: send range [{slo},{shi}) != recv range [{rlo},{rhi})"
                )
