"""The tuner front-end: policies, warm starts, and the kernel entry points.

A :class:`Tuner` binds a :class:`~repro.tune.db.TuningDB` (possibly
ephemeral) to a :class:`TuningPolicy`.  :func:`repro.kernels.run_kernel`
calls :meth:`Tuner.tune` for ``run_ssc(..., tune="auto")`` and friends; the
CLI (``python -m repro.tune``) and the ``ablation-autotune`` bench
experiment use the per-kernel ``autotune_*`` shorthands.

Policies
--------
``"auto"``
    Warm-start from the db when the signature is already recorded;
    otherwise run the two-stage search and record the result.
``"model-only"``
    Rank candidates with the analytic models alone — no simulator runs.
    Cheap, and the right tool inside model-calibration sweeps.
``"exhaustive"``
    Simulate *every* valid candidate (early termination still prunes
    hopeless runs).  The ground-truth policy the tests compare against.
``"db-only"``
    Never search: return the recorded decision or raise ``KeyError``.
    For production-style runs that must not pay search cost.
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.netmodel.params import MachineParams, NetworkParams
from repro.tune.candidates import Candidate, enumerate_candidates, \
    paper_default_candidate
from repro.tune.db import TuningDB, TuningRecord
from repro.tune.search import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_SHORTLIST,
    SearchOutcome,
    search,
)
from repro.tune.signature import WorkloadSignature, kernel_spec, signature_for

#: The policy vocabulary (see module docstring).
TUNING_POLICIES = ("auto", "model-only", "exhaustive", "db-only")

#: Alias used in signatures/docs; policies are plain strings from
#: :data:`TUNING_POLICIES`.
TuningPolicy = str


def check_policy(policy: str) -> None:
    """``policy`` must be one of :data:`TUNING_POLICIES`."""
    if policy not in TUNING_POLICIES:
        raise ValueError(
            f"unknown tuning policy {policy!r}; pick from {sorted(TUNING_POLICIES)}"
        )


def interpolation_seeds(record: TuningRecord) -> list[Candidate]:
    """A neighbor record's surviving shortlist — the interpolation seeds.

    Every trace entry that was actually scored (``sim_time`` set: simulated,
    replayed, interpolated or kept at its deadline-analytic estimate) is a
    candidate worth re-ranking at a nearby ``n``; pruned entries already
    lost at *their* n and stay out.  Sorted by candidate key so the seed
    order — and therefore the warm-started search — is deterministic.
    """
    return sorted((t.candidate for t in record.trace
                   if t.sim_time is not None),
                  key=lambda c: c.key)


class KernelEntryPoints:
    """``autotune_<kernel>(shape..., n, **options)`` shorthands over ``tune``.

    Shared by :class:`Tuner` and :class:`~repro.tune.service.TuningService`
    (anything with ``tune(sig, params=, machine=)``).  ``options`` are
    ``ppn``, ``placement``, ``params`` and ``machine``.
    """

    def autotune_ssc(self, p: int, n: int, **options) -> TuningRecord:
        """Best configuration for a :func:`repro.kernels.run_ssc` workload."""
        return self._autotune("ssc", (p,), n, **options)

    def autotune_summa(self, p: int, n: int, **options) -> TuningRecord:
        """Best configuration for a :func:`repro.dense.run_summa` workload."""
        return self._autotune("summa", (p,), n, **options)

    def autotune_ssc25d(self, q: int, c: int, n: int,
                        **options) -> TuningRecord:
        """Best configuration for a :func:`repro.kernels.run_ssc25d` workload."""
        return self._autotune("ssc25d", (q, c), n, **options)

    def _autotune(self, kernel: str, shape: tuple, n: int, *, ppn: int = 1,
                  placement: str = "block",
                  params: NetworkParams | None = None,
                  machine: MachineParams | None = None) -> TuningRecord:
        sig = signature_for(kernel, kernel_spec(kernel).mesh_shape(*shape), n,
                            ppn=ppn, placement=placement, params=params,
                            machine=machine)
        return self.tune(sig, params=params, machine=machine)


class Tuner(KernelEntryPoints):
    """Policy-driven configuration search with a persistent warm-start db."""

    def __init__(self, db: TuningDB | None = None,
                 policy: TuningPolicy = "auto", *,
                 shortlist: int = DEFAULT_SHORTLIST,
                 max_candidates: int = DEFAULT_MAX_CANDIDATES,
                 seed: int = 0,
                 replay: str = "off",
                 graph_store=None):
        check_policy(policy)
        self.db = db if db is not None else TuningDB()
        self.policy = policy
        self.shortlist = shortlist
        self.max_candidates = max_candidates
        self.seed = seed
        #: Shortlist-scoring backend knob, forwarded to
        #: :func:`repro.tune.search.search` together with this tuner's
        #: lifetime graph cache.  ``"off"`` (the default) keeps pure
        #: full-simulation scoring; ``"on"``/``"auto"`` record each scored
        #: candidate's event graph and replay it when the same workload is
        #: re-tuned under different fabric constants (e.g. a sweep).
        self.replay = replay
        #: Optional :class:`repro.tune.graphstore.GraphStore` backing the
        #: in-memory graph cache: recorded graphs for a workload are loaded
        #: from disk on first search and persisted after each search that
        #: recorded one, so a *fresh process* warm-starts its shortlist
        #: scoring through replay instead of full simulation.  Providing a
        #: store implies ``replay="auto"`` unless the caller forced a mode.
        self.graph_store = graph_store
        if graph_store is not None and replay == "off":
            self.replay = "auto"
        self.graph_cache: dict = {}
        self._loaded_workloads: set[str] = set()
        #: Counter guard: tuners are shared across service worker threads,
        #: and ``+=`` on attributes is a read-modify-write race.
        self._counter_lock = threading.Lock()
        #: Simulator invocations across this tuner's lifetime (warm starts
        #: add zero — the warm-start tests assert exactly that).
        self.simulations = 0
        #: Shortlist scorings served by graph replay instead of simulation.
        self.replays = 0
        #: Replays cut short by the incumbent deadline (early abort).
        self.replay_aborts = 0
        #: Replays that fell back to simulation, counted by reason (the
        #: ``ReplayInvalid`` message up to its run-specific detail).
        self.replay_refusals: Counter = Counter()
        #: Recorded graphs loaded from the graph store (cross-process reuse).
        self.replay_loads = 0
        #: Searches that ran on an interpolated (seeded) shortlist.
        self.interpolations = 0

    # -- core ------------------------------------------------------------------

    def tune(self, sig: WorkloadSignature, *,
             params: NetworkParams | None = None,
             machine: MachineParams | None = None) -> TuningRecord:
        """Resolve ``sig`` to a :class:`TuningRecord` under this policy."""
        if self.policy in ("auto", "db-only"):
            hit = self.db.lookup(sig)
            if hit is not None:
                return hit
            if self.policy == "db-only":
                raise KeyError(
                    f"tuning policy 'db-only' found no record for {sig.key!r}; "
                    f"run a search first (policy 'auto' or the CLI) or point "
                    f"tune_db at a populated database"
                )
        record = self.search_record(sig, params=params, machine=machine)
        self.db.insert(record)
        return record

    def search_record(self, sig: WorkloadSignature, *,
                      params: NetworkParams | None = None,
                      machine: MachineParams | None = None,
                      seed_shortlist: list[Candidate] | None = None,
                      ) -> TuningRecord:
        """Run the search and build the record **without inserting it**.

        The service commits records itself in deterministic first-miss
        order (generation stamps appear in the db bytes); callers that
        want the plain insert-on-search behavior use :meth:`tune`.
        ``seed_shortlist`` enables an interpolation warm start (see
        :func:`repro.tune.search.search`).
        """
        outcome = self._search(sig, params=params, machine=machine,
                               seed_shortlist=seed_shortlist)
        return self._record(sig, outcome)

    def interpolate_from(self, sig: WorkloadSignature,
                         neighbor: TuningRecord, *,
                         params: NetworkParams | None = None,
                         machine: MachineParams | None = None,
                         ) -> TuningRecord:
        """Tune ``sig`` by warm-starting from a nearby workload's record.

        The neighbor's surviving shortlist (every trace entry that was
        actually scored, ``sim_time`` set) seeds stage 2; stage 1's full
        enumeration still runs (it is microseconds and provides validity
        filtering plus the trace), but only the re-ranked seeds are
        simulated/replayed.  The result is inserted under ``sig``'s key
        with ``interpolated`` statuses.  This is the serial twin of the
        service's interpolation path — the byte-identity tests compare
        the two.
        """
        seeds = interpolation_seeds(neighbor)
        record = self.search_record(sig, params=params, machine=machine,
                                    seed_shortlist=seeds)
        self.db.insert(record)
        return record

    def _search(self, sig: WorkloadSignature, *,
                params: NetworkParams | None,
                machine: MachineParams | None,
                seed_shortlist: list[Candidate] | None = None,
                ) -> SearchOutcome:
        candidates = enumerate_candidates(sig, machine=machine)
        default = paper_default_candidate(sig)
        loaded = self._load_graphs(sig)
        outcome = search(
            sig, candidates, default, params=params, machine=machine,
            shortlist=self.shortlist, max_candidates=self.max_candidates,
            seed=self.seed, model_only=(self.policy == "model-only"),
            exhaustive=(self.policy == "exhaustive"),
            replay=self.replay, graph_cache=self.graph_cache,
            seed_shortlist=seed_shortlist,
        )
        self._persist_graphs(sig, outcome.recorded)
        with self._counter_lock:
            self.simulations += outcome.simulations
            self.replays += outcome.replays
            self.replay_aborts += outcome.replay_aborts
            self.replay_refusals.update(
                reason.split(" (")[0] for reason in outcome.refusals.values())
            self.replay_loads += loaded
            if outcome.interpolated:
                self.interpolations += 1
        return outcome

    def _load_graphs(self, sig: WorkloadSignature) -> int:
        """Pull persisted recordings for ``sig``'s workload into the cache."""
        if self.graph_store is None or self.replay == "off":
            return 0
        wl = sig.workload_key
        with self._counter_lock:
            if wl in self._loaded_workloads:
                return 0
            self._loaded_workloads.add(wl)
        loaded = 0
        for cand_key, rec in self.graph_store.load(wl).items():
            if self.graph_cache.setdefault((wl, cand_key), rec) is rec:
                loaded += 1
        return loaded

    def _persist_graphs(self, sig: WorkloadSignature, recorded: dict) -> None:
        """Write the graphs this search recorded to the store.

        A search served entirely by replay recorded nothing and costs no
        I/O.  :meth:`GraphStore.save` merges over the file, which already
        holds whatever earlier searches and the initial load contributed.
        """
        if self.graph_store is not None and recorded:
            self.graph_store.save(sig.workload_key, recorded)

    def _record(self, sig: WorkloadSignature,
                outcome: SearchOutcome) -> TuningRecord:
        best, default = outcome.best, outcome.default
        best_time = best.sim_time if best.sim_time is not None else best.model_time
        default_time = (default.sim_time if default.sim_time is not None
                        else default.model_time)
        return TuningRecord(
            signature=sig, policy=self.policy, seed=self.seed,
            best=best.candidate, best_time=best_time,
            default=default.candidate, default_time=default_time,
            trace=outcome.trace, simulations=outcome.simulations,
        )
