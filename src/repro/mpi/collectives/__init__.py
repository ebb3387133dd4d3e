"""Collective algorithms and their schedule executor.

A collective is compiled, per rank, into a *schedule*: a list of rounds,
each round a list of ops

* ``("send", peer, lo, hi)``  — ship my buffer's element range ``[lo, hi)``;
* ``("copy", peer, lo, hi)``  — receive the range and store it;
* ``("add",  peer, lo, hi)``  — receive the range and sum it in (reductions).

The algorithms mirror MPICH's choices, which the paper assumes in its
analysis (§V-A): binomial trees for short messages, scatter + ring-allgather
broadcast and Rabenseifner reduction (recursive-halving reduce-scatter +
binomial gather) for long messages, and dissemination barriers.  Long
reductions on non-power-of-two process counts use the ring reduce-scatter
instead of recursive halving.  Every generator is a concatenation of five
shared round builders (see :mod:`repro.mpi.collectives.algorithms`).  Blocking and nonblocking
execution share one engine-driven :class:`~repro.mpi.collectives.executor.
ScheduleRunner`; blocking execution inserts the per-round synchronization
gap that pre-posted nonblocking schedules avoid.

Runtime paths do not call the generators directly: they fetch a
:class:`~repro.mpi.collectives.plan.CollectivePlan` from the shared LRU
plan cache (:mod:`repro.mpi.collectives.plan`), which memoizes the
generated schedule together with per-op byte counts and the static
may-alias bit that enables zero-copy sends.
"""

from repro.mpi.collectives.algorithms import (
    bcast_binomial,
    bcast_long,
    reduce_binomial,
    reduce_rabenseifner,
    reduce_ring,
    allreduce_short,
    allreduce_long,
    allreduce_ring,
    allgather_ring,
    reduce_scatter_ring,
    barrier_dissemination,
    schedule_volume_bytes,
)
from repro.mpi.collectives.executor import ScheduleRunner
from repro.mpi.collectives.plan import (
    SIZE_ONLY,
    CollectivePlan,
    PlanCache,
    get_plan,
    shared_plans,
)

__all__ = [
    "SIZE_ONLY",
    "CollectivePlan",
    "PlanCache",
    "get_plan",
    "shared_plans",
    "bcast_binomial",
    "bcast_long",
    "reduce_binomial",
    "reduce_rabenseifner",
    "reduce_ring",
    "allreduce_short",
    "allreduce_long",
    "allreduce_ring",
    "allgather_ring",
    "reduce_scatter_ring",
    "barrier_dissemination",
    "schedule_volume_bytes",
    "ScheduleRunner",
]
