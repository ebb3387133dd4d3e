"""Per-rank schedule generation for each collective algorithm.

Every generator has the signature ``(p, root, me, n)``: the communicator
size, the root's and the calling rank's *local* ranks, and the logical
element count.  It returns ``list[list[op]]`` (rounds of ops) with ops
expressed as element ranges of the collective's logical buffer; peers in
ops are local ranks.  Schedules on different ranks are mutually
consistent: every ``send`` has exactly one matching ``copy``/``add`` on the
peer in a compatible round order (proved for whole plan sets by
:func:`repro.analysis.schedule.verify_collective`).

Each generator concatenates the rounds of five builders (:func:`_tree`,
:func:`_scatter`, :func:`_gather`, :func:`_ring`, :func:`_halving`), each
written once on the root-relative rank ``rel = (me - root) % p``; the peer
at rel ``rel + k`` is local rank ``(me + k) % p``.  Segment ``j`` is the
element range ``[j n // p, (j + 1) n // p)``; after either reduce-scatter,
rel ``j`` owns fully reduced segment ``j``.
"""

from __future__ import annotations

from repro.util.validation import is_power_of_two

Op = tuple  # ("send"|"copy"|"add", peer, lo, hi)
Schedule = list  # list of rounds; each round is a list[Op]


def _ceil_log2(p: int) -> int:
    return max(0, (p - 1).bit_length())


def _check(p: int, me: int, n: int, root: int) -> None:
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if not 0 <= me < p:
        raise ValueError(f"me={me} out of range for p={p}")
    if not 0 <= root < p:
        raise ValueError(f"root={root} out of range for p={p}")
    if n < 0:
        raise ValueError(f"negative element count {n}")


def _seg(kind: str, peer: int, a: int, b: int, n: int, p: int) -> Op:
    """Op on segments ``[a, b)`` of the ``p``-way split of ``n`` elements."""
    return (kind, peer, a * n // p, b * n // p)


# ---------------------------------------------------------------------------
# round builders
# ---------------------------------------------------------------------------


def _tree(p: int, root: int, me: int, n: int, kind: str) -> Schedule:
    """Full-buffer binomial tree on rel 0: ``copy`` bcasts, ``add`` reduces.

    ``ceil(log2 p)`` rounds.  The broadcast doubles the holders each round
    (rel ``< d`` feeds rel ``+ d``); the reduction folds rel ``+ d`` into
    every rel divisible by ``2 d``, lowest bit first.
    """
    parent_op, child_op = ("send", "copy") if kind == "copy" else ("add", "send")
    rel = (me - root) % p
    rounds: Schedule = []
    for t in range(_ceil_log2(p)):
        d = 1 << t
        if kind == "copy":
            parent, child = rel < d, d <= rel < 2 * d
        else:
            parent, child = rel % (2 * d) == 0, rel % (2 * d) == d
        if parent and rel + d < p:
            rounds.append([(parent_op, (me + d) % p, 0, n)])
        elif child:
            rounds.append([(child_op, (me - d) % p, 0, n)])
        else:
            rounds.append([])
    return rounds


def _scatter(p: int, root: int, me: int, n: int) -> Schedule:
    """Binomial scatter from rel 0: rel ``j`` ends holding segment ``j``."""
    rel = (me - root) % p
    T = _ceil_log2(p)
    rounds: Schedule = []
    for t in range(T):
        m = 1 << (T - 1 - t)
        if rel % (2 * m) == 0 and rel + m < p:
            rounds.append([_seg("send", (me + m) % p, rel + m,
                                min(rel + 2 * m, p), n, p)])
        elif rel % (2 * m) == m:
            rounds.append([_seg("copy", (me - m) % p, rel, min(rel + m, p),
                                n, p)])
        else:
            rounds.append([])
    return rounds


def _gather(p: int, root: int, me: int, n: int) -> Schedule:
    """Binomial gather to rel 0 of segment ``j`` owned by each rel ``j``.

    A rel collects its subtree's contiguous segments ``[rel, hi)`` and
    ships them to its parent at its lowest set bit; rel 0 ends with all.
    """
    rel = (me - root) % p
    hi = rel + 1
    rounds: Schedule = []
    for t in range(_ceil_log2(p)):
        m = 1 << t
        if rel % (2 * m) == m:
            rounds.append([_seg("send", (me - m) % p, rel, hi, n, p)])
        elif rel % (2 * m) == 0 and rel + m < p:
            hi = min(rel + 2 * m, p)
            rounds.append([_seg("copy", (me + m) % p, rel + m, hi, n, p)])
        else:
            rounds.append([])
    return rounds


def _ring(p: int, root: int, me: int, n: int, kind: str,
          shift: int) -> Schedule:
    """``p - 1`` ring rounds: ship one segment right, receive one from the left.

    Round ``t`` sends segment ``rel - shift - t`` and receives segment
    ``rel - shift - t - 1``.  ``copy`` with shift 0 is the allgather (rel
    ``j`` starts with segment ``j``); ``add`` with shift 1 is the
    reduce-scatter (rel ``j`` ends owning reduced segment ``j``).
    """
    rel = (me - root) % p
    right, left = (me + 1) % p, (me - 1) % p
    rounds: Schedule = []
    for t in range(p - 1):
        s = (rel - shift - t) % p
        r = (s - 1) % p
        rounds.append([_seg("send", right, s, s + 1, n, p),
                       _seg(kind, left, r, r + 1, n, p)])
    return rounds


def _halving(p: int, root: int, me: int, n: int) -> Schedule:
    """Recursive-halving reduce-scatter over power-of-two ``p``.

    ``log2 p`` rounds; each pairs rel with ``rel ^ d``, ships the half of
    the current segment range the partner keeps and sums in the other.
    """
    if not is_power_of_two(p):
        raise ValueError(f"recursive halving needs a power-of-two p, got {p}; "
                         f"the ring variants serve every p")
    rel = (me - root) % p
    lo, hi = 0, p
    d = p >> 1
    rounds: Schedule = []
    while d:
        mid = (lo + hi) // 2
        if rel & d:
            peer, send, lo = (me - d) % p, (lo, mid), mid
        else:
            peer, send, hi = (me + d) % p, (mid, hi), mid
        rounds.append([_seg("send", peer, *send, n, p),
                       _seg("add", peer, lo, hi, n, p)])
        d >>= 1
    return rounds


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------


def bcast_binomial(p: int, root: int, me: int, n: int) -> Schedule:
    """Binomial-tree broadcast (short messages / tiny communicators).

    ``ceil(log2 p)`` rounds; every message carries the full ``n`` elements.
    """
    _check(p, me, n, root)
    return _tree(p, root, me, n, "copy")


def bcast_long(p: int, root: int, me: int, n: int) -> Schedule:
    """Long-message broadcast: binomial scatter + ring allgather.

    Per-process communicated volume ``2 (p-1) n / p`` — the model the paper
    uses for its bandwidth analysis (van de Geijn / MPICH long broadcast).
    """
    _check(p, me, n, root)
    return _scatter(p, root, me, n) + _ring(p, root, me, n, "copy", 0)


def allgather_ring(p: int, root: int, me: int, n: int) -> Schedule:
    """Ring allgather: ``p - 1`` rounds, segment ``j`` initially on rel ``j``.

    Also the second phase of the long-message broadcast and allreduce.
    """
    _check(p, me, n, root)
    return _ring(p, root, me, n, "copy", 0)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def reduce_binomial(p: int, root: int, me: int, n: int) -> Schedule:
    """Binomial-tree reduction (short messages); full buffer per message."""
    _check(p, me, n, root)
    return _tree(p, root, me, n, "add")


def reduce_rabenseifner(p: int, root: int, me: int, n: int) -> Schedule:
    """Rabenseifner's long-message reduce-to-root (power-of-two ``p``).

    Recursive-halving reduce-scatter, then binomial gather of the owned
    segments to the root.  Matches the paper's §V-A model
    ``2 alpha log2 p + 2 beta (p-1) n / p`` (plus the combine term the paper
    drops).  Other ``p`` raise ``ValueError``: :func:`reduce_ring` serves
    them.
    """
    _check(p, me, n, root)
    return _halving(p, root, me, n) + _gather(p, root, me, n)


def reduce_scatter_ring(p: int, root: int, me: int, n: int) -> Schedule:
    """Ring reduce-scatter: ``p - 1`` rounds of ``n/p`` segments.

    Root-relative rank ``r`` ends owning fully-reduced segment ``r``.  Works
    for any ``p`` (each process sends and combines exactly ``(p-1) n / p``
    elements), which is why the long-message reduction uses it for
    non-power-of-two communicators.
    """
    _check(p, me, n, root)
    return _ring(p, root, me, n, "add", 1)


def reduce_ring(p: int, root: int, me: int, n: int) -> Schedule:
    """Long-message reduce for any ``p``: ring reduce-scatter + binomial gather."""
    _check(p, me, n, root)
    return _ring(p, root, me, n, "add", 1) + _gather(p, root, me, n)


# ---------------------------------------------------------------------------
# allreduce (every rank ends with the result; ``root`` is validated but the
# schedule is always the one rooted at rank 0)
# ---------------------------------------------------------------------------


def allreduce_short(p: int, root: int, me: int, n: int) -> Schedule:
    """Short-message allreduce: binomial reduce to 0 + binomial broadcast."""
    _check(p, me, n, root)
    return _tree(p, 0, me, n, "add") + _tree(p, 0, me, n, "copy")


def allreduce_long(p: int, root: int, me: int, n: int) -> Schedule:
    """Long-message allreduce (power-of-two ``p``): halving + ring allgather.

    Per-process volume ``2 (p-1) n / p``.  Other ``p`` raise
    ``ValueError``: :func:`allreduce_ring` serves them.
    """
    _check(p, me, n, root)
    return _halving(p, 0, me, n) + _ring(p, 0, me, n, "copy", 0)


def allreduce_ring(p: int, root: int, me: int, n: int) -> Schedule:
    """Long-message allreduce for any ``p``: ring reduce-scatter + ring allgather."""
    _check(p, me, n, root)
    return _ring(p, 0, me, n, "add", 1) + _ring(p, 0, me, n, "copy", 0)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


def barrier_dissemination(p: int, root: int, me: int, n: int) -> Schedule:
    """Dissemination barrier: ``ceil(log2 p)`` rounds of zero-byte exchanges.

    ``root`` is validated and ``n`` ignored: every message is empty.
    """
    _check(p, me, 0, root)
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


def schedule_volume_bytes(schedule: Schedule, itemsize: int = 8) -> int:
    """Total bytes this rank *sends* across the schedule."""
    total = 0
    for rnd in schedule:
        for op in rnd:
            if op[0] == "send":
                total += (op[3] - op[2]) * itemsize
    return total
