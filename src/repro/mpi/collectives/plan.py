"""Memoized collective plans and the shared plan cache.

The schedule generators in :mod:`repro.mpi.collectives.algorithms` are pure
functions of ``(p, me, root, n)`` — yet the kernels call them thousands of
times per run with identical arguments: every purification iteration, every
part ``c``, every ``N_DUP`` duplicate communicator re-derives the same
per-rank op list, and the executor then re-derives the same per-op byte
counts round after round.  A :class:`CollectivePlan` does that work once:

* ops are extended from ``(kind, peer, lo, hi)`` to
  ``(kind, peer, lo, hi, nbytes, needs_copy)`` so the executor never
  recomputes sizes;
* each round carries its maximum op size (the blocking-gap test becomes a
  single comparison against ``rendezvous_threshold``);
* ``needs_copy`` is a static may-alias bit: a send must snapshot its buffer
  range only if a ``copy``/``add`` op of the *same or a later* round on this
  rank overlaps the sent range — earlier-round receives completed before the
  send was posted, so they cannot race it.  Every long-message generator in
  this repo (ring allgather, recursive halving, binomial scatter/gather)
  is alias-free; only full-buffer tree collectives with a later overlapping
  receive (e.g. the reduce phase of ``allreduce_short``) pay the copy.

Plans are pure data (nested tuples), independent of network parameters, and
therefore shareable across ranks, communicators, worlds, and iterations.
:class:`PlanCache` is a bounded LRU over the plan key
``(algorithm, p, me, root, n_elems, itemsize)``; the module-level
:data:`shared_plans` instance is what :class:`~repro.mpi.comm.CommView`
consults, and its hit/miss counters surface in every experiment's
``sim_stats`` (see :mod:`repro.bench.harness`).

The module also hosts the memoized helpers for the P2P-heavy dense paths
(:func:`block_partition`, :func:`cannon_shift_plan`) so Cannon's per-step
block arithmetic is derived once per ``(q, i, j, n, steps, offset)`` rather
than once per step per layer per iteration.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache

from repro.mpi.collectives import algorithms as _alg


class _SizeOnlyPayload:
    """Singleton symbolic payload for sizes-only (``buf=None``) sends.

    Carries no data and allocates nothing per message; receivers recognize
    it by identity and skip the numpy store/accumulate entirely, so modeled
    sweeps at large ``p`` never materialize arrays.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<size-only payload>"


SIZE_ONLY = _SizeOnlyPayload()

#: algorithm name -> generator ``f(p, root, me, n) -> Schedule``.
#: Names are the public vocabulary of the plan cache (stable across PRs:
#: they appear in cache keys and tests).
GENERATORS = {
    "bcast_binomial": _alg.bcast_binomial,
    "bcast_long": _alg.bcast_long,
    "reduce_binomial": _alg.reduce_binomial,
    "reduce_rabenseifner": _alg.reduce_rabenseifner,
    "reduce_ring": _alg.reduce_ring,
    "allreduce_short": _alg.allreduce_short,
    "allreduce_long": _alg.allreduce_long,
    "allreduce_ring": _alg.allreduce_ring,
    "allgather_ring": _alg.allgather_ring,
    "reduce_scatter_ring": _alg.reduce_scatter_ring,
    "barrier": _alg.barrier_dissemination,
}

#: Generators that raise ``ValueError`` unless ``p`` is a power of two;
#: the selectors below send every other ``p`` to the ring variants.
POW2_ONLY = frozenset({"reduce_rabenseifner", "allreduce_long"})


# ---------------------------------------------------------------------------
# algorithm selection (pure functions of the op shape + network parameters)
# ---------------------------------------------------------------------------
#
# These are the *protocol decisions* of :class:`~repro.mpi.comm.CommView`:
# given a collective verb and an op shape, which generator from
# :data:`GENERATORS` runs it.  They are deliberately pure functions of
# ``(p, n_elems, itemsize, params)`` — no world, no engine — so the static
# schedule verifier (:mod:`repro.analysis.schedule`) can symbolically
# execute them with a field-access-tracing parameter proxy and prove that
# schedule *structure* never depends on a replay-safe fabric constant
# (finding RA306; see ``REPLAY_SAFE_FIELDS`` in :mod:`repro.sim.replay`).


def select_bcast(p: int, n_elems: int, itemsize: int, params) -> str:
    """Broadcast algorithm for ``n_elems`` elements on ``p`` ranks."""
    if n_elems * itemsize < params.long_message_threshold or p <= 2:
        return "bcast_binomial"
    return "bcast_long"


def select_reduce(p: int, n_elems: int, itemsize: int, params) -> str:
    """Reduce-to-root algorithm (binomial / Rabenseifner / ring)."""
    if n_elems * itemsize < params.long_message_threshold or p <= 2:
        return "reduce_binomial"
    if p & (p - 1) == 0:  # power of two: recursive halving (Rabenseifner)
        return "reduce_rabenseifner"
    return "reduce_ring"


def select_allreduce(p: int, n_elems: int, itemsize: int, params) -> str:
    """Allreduce algorithm (short / halving+ring-allgather / ring)."""
    if n_elems * itemsize < params.long_message_threshold or p <= 2:
        return "allreduce_short"
    if p & (p - 1) == 0:
        return "allreduce_long"
    return "allreduce_ring"


def select_allgather(p: int, n_elems: int, itemsize: int, params) -> str:
    """Allgather algorithm (the ring is used at every size)."""
    return "allgather_ring"


def select_reduce_scatter(p: int, n_elems: int, itemsize: int, params) -> str:
    """Reduce-scatter algorithm (the ring is used at every size)."""
    return "reduce_scatter_ring"


def select_barrier(p: int, n_elems: int, itemsize: int, params) -> str:
    """Barrier algorithm (dissemination at every size)."""
    return "barrier"


#: collective verb -> selection function.  The static verifier iterates
#: this registry; adding a verb here automatically puts its protocol
#: decision under the RA306 replay-envelope check.
SELECTORS = {
    "bcast": select_bcast,
    "reduce": select_reduce,
    "allreduce": select_allreduce,
    "allgather": select_allgather,
    "reduce_scatter": select_reduce_scatter,
    "barrier": select_barrier,
}


class CollectivePlan:
    """One rank's fully-precomputed execution plan for one collective.

    ``rounds`` is a tuple of rounds, each a tuple of
    ``(kind, peer, lo, hi, nbytes, needs_copy)`` ops; ``round_max_nbytes``
    is a per-round tuple consumed by
    :class:`~repro.mpi.collectives.executor.ScheduleRunner`.
    """

    __slots__ = ("key", "rounds", "round_max_nbytes")

    def __init__(self, key, schedule, itemsize: int):
        self.key = key
        itemsize = int(itemsize)
        rounds = []
        max_nbytes = []
        for rnd in schedule:
            ops = []
            biggest = 0
            for op in rnd:
                kind, peer, lo, hi = op
                nbytes = (hi - lo) * itemsize
                if nbytes > biggest:
                    biggest = nbytes
                ops.append((kind, peer, lo, hi, nbytes, False))
            rounds.append(ops)
            max_nbytes.append(biggest)
        # May-alias pass (back to front): a send needs a private snapshot
        # only if a receive of the same or a later round writes into its
        # range while the payload may still be in flight.
        writes: list[tuple[int, int]] = []
        for ops in reversed(rounds):
            for op in ops:
                if op[0] != "send":
                    lo, hi = op[2], op[3]
                    if hi > lo:
                        writes.append((lo, hi))
            for idx, op in enumerate(ops):
                if op[0] == "send" and op[3] > op[2]:
                    lo, hi = op[2], op[3]
                    if any(wlo < hi and lo < whi for wlo, whi in writes):
                        ops[idx] = op[:5] + (True,)
        self.rounds = tuple(tuple(ops) for ops in rounds)
        self.round_max_nbytes = tuple(max_nbytes)

    @classmethod
    def build(cls, algorithm: str, p: int, me: int, root: int, n_elems: int,
              itemsize: int) -> "CollectivePlan":
        """Generate + precompute the plan for one cache key (cold path)."""
        try:
            gen = GENERATORS[algorithm]
        except KeyError:
            raise KeyError(
                f"unknown collective algorithm {algorithm!r}; "
                f"known: {sorted(GENERATORS)}"
            ) from None
        key = (algorithm, p, me, root, n_elems, itemsize)
        return cls(key, gen(p, root, me, n_elems), itemsize)

    @classmethod
    def from_schedule(cls, schedule, itemsize: int) -> "CollectivePlan":
        """Wrap a raw ``list[list[(kind, peer, lo, hi)]]`` schedule (uncached).

        For schedules built outside the generator registry (tests and the
        verifier's mutation fixtures); the plan carries ``key=None``.
        """
        return cls(None, schedule, itemsize)

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self):
        return iter(self.rounds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CollectivePlan key={self.key} rounds={len(self.rounds)}>"


class PlanCache:
    """Bounded LRU of :class:`CollectivePlan` keyed on the full plan key.

    One instance is shared across every rank, communicator, and world in the
    process (plans are immutable), so the N_DUP duplicate communicators and
    repeated purification iterations all hit the same entries.
    """

    __slots__ = ("maxsize", "_plans", "hits", "misses", "evictions", "_lock")

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._plans: OrderedDict[tuple, CollectivePlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # The process-wide shared cache is hit from every tuning-service
        # search thread; OrderedDict reordering plus the counters are
        # read-modify-write sequences that must not interleave.  Plan
        # *construction* stays outside the lock — a rare duplicate build
        # is cheaper than serializing every miss.
        self._lock = threading.Lock()

    def get(self, algorithm: str, p: int, me: int, root: int = 0,
            n_elems: int = 0, itemsize: int = 8) -> CollectivePlan:
        """Return the memoized plan, building (and possibly evicting) on miss."""
        key = (algorithm, p, me, root, n_elems, itemsize)
        plans = self._plans
        with self._lock:
            plan = plans.get(key)
            if plan is not None:
                self.hits += 1
                plans.move_to_end(key)
                return plan
            self.misses += 1
        plan = CollectivePlan.build(algorithm, p, me, root, n_elems, itemsize)
        with self._lock:
            plans[key] = plan
            if len(plans) > self.maxsize:
                plans.popitem(last=False)
                self.evictions += 1
        return plan

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: tuple) -> bool:
        return key in self._plans

    def clear(self) -> None:
        """Drop every cached plan.  Counters are **not** touched.

        The hit/miss/eviction counters are read-only cumulative statistics;
        dropping entries (to free memory or to force cold rebuilds) must not
        rewrite history.  Call :meth:`reset` to zero the counters explicitly
        (the bench harness does both between isolated grid points).
        """
        self._plans.clear()

    def reset(self) -> None:
        """Zero the cumulative hit/miss/eviction counters (entries stay)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict:
        """Counters snapshot; ``hit_rate`` is 0.0 when nothing was looked up."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._plans),
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


#: The process-wide cache every :class:`~repro.mpi.comm.CommView` consults.
shared_plans = PlanCache()


def get_plan(algorithm: str, p: int, me: int, root: int = 0,
             n_elems: int = 0, itemsize: int = 8) -> CollectivePlan:
    """Memoized plan lookup on :data:`shared_plans` (the hot entry point)."""
    return shared_plans.get(algorithm, p, me, root, n_elems, itemsize)


# ---------------------------------------------------------------------------
# dense-kernel P2P plans (Cannon / 2.5D / 3D block arithmetic)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def block_partition(n: int, q: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """``(dims, ranges)`` of the ``q``-way block partition of ``n`` elements.

    ``dims[i]`` / ``ranges[i]`` match
    :func:`repro.dense.distribution.block_dim` / ``block_range`` — memoized
    here because the dense kernels ask for the same partition once per rank
    per step per iteration.
    """
    bounds = [(i * n) // q for i in range(q + 1)]
    dims = tuple(bounds[i + 1] - bounds[i] for i in range(q))
    ranges = tuple((bounds[i], bounds[i + 1]) for i in range(q))
    return dims, ranges


@lru_cache(maxsize=8192)
def cannon_shift_plan(q: int, i: int, j: int, n: int, steps: int,
                      offset: int) -> tuple:
    """Precomputed Cannon itinerary for process ``(i, j)`` on a ``q x q`` layer.

    Returns ``(align, shifts)``:

    ``align = (a_dst, a_src, b_dst, b_src, l0)``
        Initial-alignment sendrecv peers (local ranks in the row/column
        communicators) and the first travelling inner index ``l0``; a peer
        equal to the caller's own coordinate means no movement.

    ``shifts``
        One ``(l, bl)`` entry per multiply step: the travelling inner block
        index and its dimension.  The shift *after* step ``t`` moves
        ``bi x shifts[t][1]`` (A) and ``shifts[t][1] x bj`` (B) elements to
        the fixed neighbours ``(j - 1) % q`` / ``(i - 1) % q``.
    """
    dims, _ranges = block_partition(n, q)
    a_dst = (j - i - offset) % q
    a_src = (j + i + offset) % q
    b_dst = (i - j - offset) % q
    b_src = (i + j + offset) % q
    l0 = (i + j + offset) % q
    shifts = []
    l = l0
    for _t in range(steps):
        shifts.append((l, dims[l]))
        l = (l + 1) % q
    return (a_dst, a_src, b_dst, b_src, l0), tuple(shifts)
