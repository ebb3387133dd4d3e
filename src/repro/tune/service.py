"""Tuning-as-a-service: a concurrent, amortizing front-end for the tuner.

``repro.tune`` made configuration search automatic; this module makes it a
**shared resource**.  A :class:`TuningService` sits in front of one
:class:`~repro.tune.db.TuningDB` and serves concurrent ``tune()`` calls
from threads in one process.  Four mechanisms turn one search into many
answers:

**Record cache.**  Committed decisions live in a read-mostly dict in front
of the db.  A warm ``tune()`` is a single lock-free dict probe — no service
lock, no db access, no search (stats counters use a dedicated micro-lock
that the record path never touches).

**Request coalescing.**  Concurrent misses for the same signature join one
in-flight search through a shared future: the first arrival (the *leader*)
runs the search on its own thread, everyone else blocks on the future.  A
thousand-client stampede over one signature costs exactly one search.

**Interpolated warm starts.**  A miss whose *family* (same kernel, ranks,
mesh, PPN, placement and fabric — only ``n`` differs) already holds a
record within :data:`INTERPOLATION_REL_TOL` re-ranks that neighbor's
surviving shortlist with the analytic model at the new ``n`` and simulates
only the top few — trace status ``interpolated``, simulator cost bounded by
the shortlist size instead of a fresh enumeration-and-prune pass.

**Cross-process replay reuse.**  The service's tuner owns a
:class:`~repro.tune.graphstore.GraphStore` persisted next to the db, so
shortlist scoring in a *fresh process* loads the recorded event graphs and
prices candidates through :func:`repro.sim.replay.replay` instead of
re-simulating.

Plus **online re-tuning**: when a :class:`~repro.sim.faults.FaultPlan`
changes the effective fabric constants (:func:`degraded_params`), the new
fabric hash misses — with ``stale_while_revalidate=True`` the service
answers immediately with the newest record of the same workload under the
*old* constants and kicks a background re-search that commits the fresh
decision when it lands.

Determinism contract
--------------------
Byte-determinism of the db is non-negotiable.  Searches run in **one
lane**: each distinct miss takes an order ticket under the service lock,
and its leader waits until every earlier ticket has committed before it
runs :func:`serial_step` — the same step :func:`tune_serial` (the
service's serial twin) runs for each of its misses.  Searches never
overlap (under the GIL concurrent ones only contend for it), so
replay-vs-simulate and interpolate-vs-search decisions and the generation
stamps in the db bytes follow first-miss order.  Feeding the service's
first-miss sequence of distinct signatures through :func:`tune_serial`
therefore produces a **byte-identical db file** by construction — the
property the tests and the ``ablation-tune-service`` bench gate pin.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

from repro.netmodel.params import MachineParams, NetworkParams
from repro.tune.db import TuningDB, TuningRecord
from repro.tune.graphstore import GraphStore
from repro.tune.search import DEFAULT_MAX_CANDIDATES, DEFAULT_SHORTLIST
from repro.tune.signature import WorkloadSignature
from repro.tune.tuner import KernelEntryPoints, Tuner, interpolation_seeds

#: Interpolation neighborhood: a family record qualifies as a warm-start
#: neighbor when ``|n - n'| / n'`` is at most this.  Candidate validity and
#: the analytic models vary smoothly over a ±10% dimension change; beyond
#: it the neighbor's shortlist stops being evidence.
INTERPOLATION_REL_TOL = 0.10


def find_neighbor(records, sig: WorkloadSignature,
                  tol: float = INTERPOLATION_REL_TOL) -> TuningRecord | None:
    """The best interpolation neighbor for ``sig`` among ``records``.

    A neighbor must share ``sig.family_key`` (only ``n`` differs), sit
    within ``tol`` relative dimension distance, and carry at least one
    actually-scored trace entry to seed from.  Ties break on (relative
    distance, n, key) so the choice is a pure function of the record set —
    the service and its serial twin must pick identically.
    """
    best_rank = None
    best = None
    for rec in records:
        rsig = rec.signature
        if rsig.key == sig.key or rsig.family_key != sig.family_key:
            continue
        rel = abs(sig.n - rsig.n) / rsig.n
        if rel > tol:
            continue
        if not any(t.sim_time is not None for t in rec.trace):
            continue
        rank = (rel, rsig.n, rsig.key)
        if best_rank is None or rank < best_rank:
            best_rank, best = rank, rec
    return best


def degraded_params(params: NetworkParams | None, fault_plan) -> NetworkParams:
    """The effective fabric constants while ``fault_plan``'s links degrade.

    Takes the conservative worst case: the NIC bandwidth is scaled by the
    smallest single-window link-degradation factor in the plan (1.0 when
    the plan has none).  Because the fabric-constants hash is part of every
    signature key, the returned params give fault-window workloads their
    own tuning records — and a stale-while-revalidate service will serve
    the healthy-fabric record while re-tuning for the degraded one.
    """
    base = params or NetworkParams()
    factor = min((s.factor for s in getattr(fault_plan, "links", ())),
                 default=1.0)
    if factor >= 1.0:
        return base
    return base.replace(nic_bandwidth=base.nic_bandwidth * factor)


class _Counter:
    """An exact concurrent counter with its own micro-lock.

    CPython's ``+=`` on an attribute is a read-modify-write race; this
    keeps hot-path counters exact without ever touching the service lock.
    """

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def add(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class TuningService(KernelEntryPoints):
    """Concurrent tuning backend over one :class:`TuningDB`.

    Thread-safe; every public method may be called from any thread.  The
    first thread to miss on a signature runs the search itself, in its
    first-miss turn (callers are the worker pool — the service owns no
    threads except the optional stale-while-revalidate refresher).
    """

    def __init__(self, db: TuningDB | str | os.PathLike | None = None, *,
                 policy: str = "auto",
                 shortlist: int = DEFAULT_SHORTLIST,
                 max_candidates: int = DEFAULT_MAX_CANDIDATES,
                 seed: int = 0,
                 replay: str = "auto",
                 graph_store: GraphStore | str | None = "auto",
                 stale_while_revalidate: bool = False,
                 search_gate: threading.Event | None = None):
        if isinstance(db, (str, os.PathLike)):
            db = TuningDB(db)
        self.db = db if db is not None else TuningDB()
        if graph_store == "auto":
            graph_store = (GraphStore.for_db(self.db.path)
                           if self.db.path is not None else None)
        elif isinstance(graph_store, (str, os.PathLike)):
            graph_store = GraphStore(graph_store)
        self.tuner = Tuner(db=self.db, policy=policy, shortlist=shortlist,
                           max_candidates=max_candidates, seed=seed,
                           replay=replay, graph_store=graph_store)
        self.stale_while_revalidate = stale_while_revalidate
        #: Test/bench hook: leaders block here after registering their miss
        #: and before searching, so an orchestrator can guarantee every
        #: stampede request is registered before the first search finishes
        #: (making the coalesced count exactly ``requests - distinct``).
        self._gate = search_gate

        self._lock = threading.Lock()
        #: Signalled whenever a search commits and passes the lane on.
        self._turn = threading.Condition(self._lock)
        #: Read-mostly committed-decision cache; plain dict reads are the
        #: warm path (atomic under the GIL, no service lock).
        self._cache: dict[str, TuningRecord] = dict(self.db._records)
        self._inflight: dict[str, Future] = {}
        self._next_order = 0        # the next miss's order ticket
        self._next_run = 0          # the ticket whose turn it is to search
        self._requests = _Counter()
        self._hits = _Counter()
        self._coalesced = 0
        self._searches = 0
        self._interpolated = 0
        self._stale_served = 0
        self._refreshes = 0
        self._refresh_pool: ThreadPoolExecutor | None = None
        self._refresh_futures: list[Future] = []

    # -- the request path ----------------------------------------------------

    def tune(self, sig: WorkloadSignature, *,
             params: NetworkParams | None = None,
             machine: MachineParams | None = None) -> TuningRecord:
        """Resolve ``sig`` — from cache, a joined in-flight search, an
        interpolated warm start, or a fresh search (in that order of cost)."""
        self._requests.add()
        rec = self._cache.get(sig.key)          # lock-free warm path
        if rec is not None:
            self._hits.add()
            return rec
        fut, order, answer = self._register(sig, params, machine)
        if answer is not None:
            return answer
        if order >= 0:
            self._run_search_job(sig, fut, order, params, machine)
        return fut.result()

    def _register(self, sig: WorkloadSignature, params=None, machine=None):
        """Take the miss path's decisions under the service lock.

        Returns ``(future, order, answer)``: ``answer`` is a record to
        return at once (a late hit or a stale serve); ``order >= 0`` makes
        the caller the leader that runs the search in that turn.
        """
        key = sig.key
        with self._lock:
            rec = self._cache.get(key)
            if rec is not None:
                # Committed while we waited for the lock: a (late) hit.
                self._hits.add()
                return None, -1, rec
            if self.tuner.policy == "db-only":
                raise KeyError(
                    f"tuning policy 'db-only' found no record for "
                    f"{sig.key!r}; warm the service first"
                )
            stale = None
            if self.stale_while_revalidate:
                stale = self._find_stale_locked(sig)
            fut = self._inflight.get(key)
            if fut is not None:
                self._coalesced += 1
                if stale is not None:
                    self._stale_served += 1
                return fut, -1, stale
            order = self._next_order
            self._next_order += 1
            fut = self._inflight[key] = Future()
            if stale is None:
                return fut, order, None
            # Serve the old-fabric record now; search in the background.
            self._stale_served += 1
            self._refreshes += 1
            pool = self._refresh_pool
            if pool is None:
                pool = self._refresh_pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="tune-refresh")
            self._refresh_futures = [f for f in self._refresh_futures
                                     if not f.done()]
            self._refresh_futures.append(pool.submit(
                self._run_search_job, sig, fut, order, params, machine))
            return fut, -1, stale

    def _run_search_job(self, sig: WorkloadSignature, fut: Future,
                        order: int, params, machine) -> None:
        """Leader body: wait for the gate and this ticket's turn, search,
        commit, and pass the turn on — also when the search raised."""
        if self._gate is not None:
            self._gate.wait()
        with self._turn:
            while self._next_run != order:
                self._turn.wait()
        try:
            rec, interpolated = serial_step(self.tuner, sig, params, machine)
        except BaseException as exc:
            self._end_turn(sig.key)
            fut.set_exception(exc)
            return
        self._end_turn(sig.key, interpolated)
        fut.set_result(rec)

    def _end_turn(self, key: str, interpolated: bool | None = None) -> None:
        """Commit a finished search (``interpolated`` is None when it
        raised) and hand the lane to the next ticket."""
        with self._turn:
            if interpolated is not None:
                if interpolated:
                    self._interpolated += 1
                else:
                    self._searches += 1
                # The db insert may have evicted records: the cache mirrors
                # the db, so an evicted key is never served stale.
                self._cache = dict(self.db._records)
            del self._inflight[key]
            self._next_run += 1
            self._turn.notify_all()

    def _find_stale_locked(self, sig) -> TuningRecord | None:
        """Newest committed record of the same workload, any fabric hash."""
        best = None
        best_rank = None
        for rec in self._cache.values():
            rsig = rec.signature
            if rsig.key == sig.key or rsig.workload_key != sig.workload_key:
                continue
            rank = (-rec.generation, rsig.key)
            if best_rank is None or rank < best_rank:
                best_rank, best = rank, rec
        return best

    # -- lifecycle / introspection -------------------------------------------

    def drain(self) -> None:
        """Block until every in-flight and background search has committed."""
        while True:
            with self._lock:
                futs = list(self._inflight.values())
                futs += [f for f in self._refresh_futures if not f.done()]
            if not futs:
                return
            for f in futs:
                try:
                    f.result()
                except BaseException:
                    pass

    def save(self, path=None):
        """Drain, then persist the db (its bytes are the determinism gate)."""
        self.drain()
        return self.db.save(path)

    def close(self) -> None:
        self.drain()
        if self._refresh_pool is not None:
            self._refresh_pool.shutdown(wait=True)
            self._refresh_pool = None

    def stats(self) -> dict:
        """A consistent snapshot of the service counters."""
        t = self.tuner
        with self._lock:
            return {
                "requests": self._requests.value,
                "hits": self._hits.value,
                "coalesced": self._coalesced,
                "searches": self._searches,
                "interpolated": self._interpolated,
                "stale_served": self._stale_served,
                "refreshes": self._refreshes,
                "inflight": len(self._inflight),
                "records": len(self.db),
                "simulations": t.simulations,
                "replays": t.replays,
                "replay_aborts": t.replay_aborts,
                "replay_refusals": dict(t.replay_refusals),
                "replay_loads": t.replay_loads,
                "interpolations": t.interpolations,
            }


def serial_step(tuner: Tuner, sig: WorkloadSignature, params=None,
                machine=None) -> tuple[TuningRecord, bool]:
    """Search one miss with ``tuner`` and insert the record into its db.

    The search is seeded with the shortlist of ``sig``'s family neighbor
    in ``tuner.db`` when there is one.  Returns ``(record, interpolated)``.
    This is the one search step of both :func:`tune_serial` and the
    service's lane.
    """
    neighbor = find_neighbor(tuner.db._records.values(), sig)
    seeds = interpolation_seeds(neighbor) if neighbor is not None else None
    rec = tuner.search_record(sig, params=params, machine=machine,
                              seed_shortlist=seeds)
    tuner.db.insert(rec)
    return rec, neighbor is not None


def tune_serial(requests, db: TuningDB | None = None,
                **tuner_opts) -> TuningDB:
    """The service's **serial twin**: same decisions, one thread, no cache.

    ``requests`` is an iterable of ``WorkloadSignature`` (or
    ``(signature, params, machine)`` tuples) processed strictly in order
    with a plain :class:`Tuner` — a hit is skipped, a miss runs
    :func:`serial_step`.  Feeding the service's first-miss sequence
    through this function must produce a byte-identical ``to_json()`` —
    that equality is the determinism gate.
    """
    tuner = Tuner(db=db, **tuner_opts)
    for req in requests:
        if isinstance(req, WorkloadSignature):
            sig, params, machine = req, None, None
        else:
            sig, params, machine = req
        if tuner.db.lookup(sig) is None:
            serial_step(tuner, sig, params, machine)
    return tuner.db
