"""The two-stage candidate search: analytic pruning, then exact simulation.

Stage 1 scores every valid candidate with the kernel's closed-form
alpha-beta model (``KernelSpec.estimate``, see
:mod:`repro.netmodel.analytic`) — microseconds per candidate — and keeps a
shortlist.  Stage 2 replays the shortlist through
the discrete-event simulator, which prices everything the closed forms
cannot (link sharing, pipeline bubbles, barrier skew), with **early
termination**: each run carries the incumbent's finishing time as a
``deadline``, so a candidate that cannot win is abandoned the moment the
virtual clock proves it (:class:`~repro.sim.engine.DeadlineExceeded`).

The paper-default configuration is always simulated first, without a
deadline, to seed the incumbent.  Every later candidate either finishes
no later than the incumbent or is pruned — which is why a tuned
configuration can never be slower than the paper default *by construction*,
not merely by measurement.

Shortlist entries that run one program — collective overrides the
protocol selectors resolve to the same algorithms (:func:`schedule_key`) —
are scored once per search; the later ones reuse the score.

Everything here is deterministic: candidate order is a pure function of the
signature, deadlines are virtual times, and the only randomness — seeded
subsampling when the candidate space exceeds ``max_candidates`` — comes
from an explicit ``random.Random(seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.kernels import KERNELS, run_kernel
from repro.mpi.collectives.plan import SELECTORS
from repro.netmodel.params import MachineParams, NetworkParams
from repro.sim.engine import DeadlineExceeded
from repro.sim.replay import ReplayInvalid, replay_kernel
from repro.tune.candidates import Candidate, effective_params
from repro.tune.db import TraceEntry
from repro.tune.signature import WorkloadSignature

#: Stage-2 shortlist size (stage 1 keeps this many model-best candidates).
DEFAULT_SHORTLIST = 4

#: Shortlist-scoring backends: ``off`` always runs the full simulator;
#: ``on`` records each simulated candidate's event graph and replays it on
#: later scorings; ``auto`` does the same but only when the caller provides
#: a shared ``graph_cache`` (recording into a throwaway cache is pure
#: overhead).  Replay falls back to full simulation automatically whenever
#: the recorded graph is invalid for the requested scoring (different
#: topology/placement/machine, structural parameter change, or a recording
#: the hooks marked unreplayable).
REPLAY_MODES = ("auto", "on", "off")

#: Hard cap on candidates scored by the model; beyond it the generator's
#: output is subsampled deterministically with the search seed.
DEFAULT_MAX_CANDIDATES = 128

#: Virtual-time slack multiplier on the incumbent deadline.  Exactly 1.0
#: would prune candidates that tie the incumbent to the last event; a hair
#: of slack lets ties finish and lose on the measured time instead.
DEADLINE_SLACK = 1.0 + 1e-9


def model_time(sig: WorkloadSignature, cand: Candidate,
               params: NetworkParams | None = None,
               machine: MachineParams | None = None) -> float:
    """Stage-1 analytic estimate [s] of ``cand`` on ``sig``'s workload."""
    return KERNELS[cand.kernel].estimate(cand, sig.n, params, machine)


def simulate_candidate(sig: WorkloadSignature, cand: Candidate,
                       params: NetworkParams | None = None,
                       machine: MachineParams | None = None,
                       deadline: float | None = None,
                       record: bool = False):
    """Stage-2 exact score: one simulated kernel call of ``cand``.

    Returns ``(kernel_time, world_time)`` — the per-call kernel time (the
    comparison metric) and the world's final virtual time (the next
    incumbent deadline, inclusive of barriers and warm-up).  Raises
    :class:`DeadlineExceeded` when ``deadline`` cuts the run short.

    With ``record=True`` the run captures its event dependency graph and
    the return value grows to ``(kernel_time, world_time, recording)`` —
    the recording is ``None``-safe but may be invalid (check ``.valid``).
    """
    res = run_kernel(
        KERNELS[cand.kernel], cand, sig.n,
        params=effective_params(cand, params), machine=machine,
        placement=sig.placement, deadline=deadline, record=record,
    )
    if record:
        return res.elapsed, res.world.engine.now, res.recording
    return res.elapsed, res.world.engine.now


def schedule_key(sig: WorkloadSignature, cand: Candidate,
                 params: NetworkParams | None = None) -> tuple:
    """The identity of the program ``cand`` runs on ``sig``'s workload.

    ``cand`` with its collective override reset to ``"auto"``, plus the
    algorithm each collective-op shape the kernel can post
    (``KernelSpec.population``) selects under ``cand``'s effective
    parameters.  The override acts only through ``long_message_threshold``,
    which only the :data:`~repro.mpi.collectives.plan.SELECTORS` read, so
    two candidates with equal keys post the identical event sequence:
    where every collective is already long (or binomial, as on 2-rank
    communicators) ``auto``, ``binomial`` and ``long`` name one schedule.
    """
    eff = effective_params(cand, params)
    shapes = sorted(set(KERNELS[cand.kernel].population(cand, sig.n)))
    return (replace(cand, collective="auto"),
            tuple(SELECTORS[verb](size, n_elems, itemsize, eff)
                  for verb, size, _root, n_elems, itemsize in shapes))


def _reuse(prior: tuple | None, deadline: float | None):
    """``(status, kernel_time, world_time)`` an equal-key entry scored
    under ``deadline`` would get, given the earlier scoring ``prior``
    (``(deadline, status, kernel_time, world_time)``), or ``None`` when
    the earlier result does not decide it.

    Under the same deadline the run is the same run.  A deadline-free run
    whose world ended by ``deadline`` also finishes under it, with the
    same kernel time; the world clock then reads the deadline, because a
    bounded run pins it there (:meth:`repro.sim.engine.Engine.run`).
    """
    if prior is None:
        return None
    prior_deadline, status, kernel_time, world_time = prior
    if prior_deadline == deadline:
        return status, kernel_time, world_time
    if (prior_deadline is None and status != "pruned-deadline"
            and world_time <= deadline):
        return status, kernel_time, deadline
    return None


@dataclass
class SearchOutcome:
    """What a search pass hands back to the :class:`~repro.tune.tuner.Tuner`."""

    best: TraceEntry
    default: TraceEntry
    trace: list[TraceEntry] = field(default_factory=list)
    simulations: int = 0
    replays: int = 0                  #: shortlist scorings served by replay
    #: Shortlist entries that took an earlier entry's score because their
    #: :func:`schedule_key` was equal (no simulation, replay or recording).
    aliased: int = 0
    replay_aborts: int = 0            #: replays cut short by the deadline
    interpolated: bool = False        #: stage 2 ran on a seeded shortlist
    #: Recordings this search wrote into ``graph_cache`` (new or replaced),
    #: by candidate key.
    recorded: dict = field(default_factory=dict)
    #: Why replay fell back to simulation: candidate key -> the
    #: :class:`~repro.sim.replay.ReplayInvalid` message.
    refusals: dict = field(default_factory=dict)


def _score(sig: WorkloadSignature, cand: Candidate, deadline: float | None,
           out: SearchOutcome, *, params: NetworkParams | None,
           machine: MachineParams | None, graph_cache: dict | None):
    """Score one shortlist candidate: ``(status, kernel_time, world_time)``.

    With a ``graph_cache`` the candidate's recorded graph is replayed when
    there is one (``"replayed"``, or ``"pruned-deadline"`` with no times
    when the replay proves it cannot beat ``deadline``); otherwise it is
    simulated (``"simulated"``), recording into the cache when there is
    one.  A simulation cut short by ``deadline`` raises
    :class:`DeadlineExceeded`.  Counts and recordings go into ``out``.
    """
    # Cache key: workload identity *without* the fabric hash — reusing a
    # graph under different constants is the entire point; compatibility is
    # the recording's own check, not the key's.
    cache_key = (sig.workload_key, cand.key)
    recg = None if graph_cache is None else graph_cache.get(cache_key)
    if recg is not None:
        try:
            kernel_time, world_time = replay_kernel(
                recg, params=effective_params(cand, params),
                machine=machine, deadline=deadline)
            out.replays += 1
            return "replayed", kernel_time, world_time
        except DeadlineExceeded:
            # The replay stopped at the incumbent's finish with a rank
            # program still running (see repro.sim.replay) — it never
            # solved the full graph.
            out.replays += 1
            out.replay_aborts += 1
            return "pruned-deadline", None, None
        except ReplayInvalid as exc:
            # Envelope violated: full simulation, and say why.
            out.refusals[cand.key] = str(exc)
        finally:
            # One scoring per graph per search: the fold (several times
            # the recording's size) must not stay parked in the cache.
            recg.drop_fold()
    out.simulations += 1
    if graph_cache is None:
        kernel_time, world_time = simulate_candidate(
            sig, cand, params, machine, deadline=deadline)
    else:
        kernel_time, world_time, recg = simulate_candidate(
            sig, cand, params, machine, deadline=deadline, record=True)
        if recg is not None and recg.valid:
            recg.seal()
            graph_cache[cache_key] = recg
            out.recorded[cand.key] = recg
    return "simulated", kernel_time, world_time


def _sample(cands: list[Candidate], limit: int, seed: int) -> list[Candidate]:
    """Deterministically subsample ``cands`` to ``limit`` (order preserved)."""
    if len(cands) <= limit:
        return cands
    rng = random.Random(seed)
    picked = set(rng.sample(range(len(cands)), limit))
    return [c for idx, c in enumerate(cands) if idx in picked]


def search(sig: WorkloadSignature, candidates: list[Candidate],
           default: Candidate, *,
           params: NetworkParams | None = None,
           machine: MachineParams | None = None,
           shortlist: int = DEFAULT_SHORTLIST,
           max_candidates: int = DEFAULT_MAX_CANDIDATES,
           seed: int = 0,
           model_only: bool = False,
           exhaustive: bool = False,
           replay: str = "off",
           graph_cache: dict | None = None,
           seed_shortlist: list[Candidate] | None = None) -> SearchOutcome:
    """Run the two-stage search over ``candidates`` for ``sig``.

    ``model_only`` stops after stage 1 (no simulator runs); ``exhaustive``
    skips the shortlist and simulates every candidate (early termination
    still applies).  The paper ``default`` is always scored — simulated
    first, deadline-free — so the returned best is never worse than it.
    A shortlist entry whose :func:`schedule_key` equals an earlier
    entry's runs the same program, so it takes that score (counted in
    ``aliased``) instead of being simulated or replayed again.

    ``replay`` selects the shortlist-scoring backend (see
    :data:`REPLAY_MODES`); ``graph_cache`` is a caller-owned dict of
    recorded event graphs keyed by ``(workload, candidate)``.  Pass the
    same dict across searches that differ only in fabric constants (e.g. a
    parameter sweep) and the shortlist re-scores by replaying the recorded
    graphs — bit-for-bit the times a full simulation would produce —
    instead of re-running the simulator.

    ``seed_shortlist`` is an **interpolation warm start**: instead of the
    model-ranked top of the candidate pool, stage 2 scores the given
    candidates (a nearby workload's surviving shortlist), re-ranked by the
    analytic model *at this signature's* ``n`` and truncated to
    ``shortlist - 1`` plus the default.  Seeds not valid for this workload
    (they must appear in ``candidates``) are dropped.  Scored entries are
    marked ``interpolated`` so the db records how the decision was made.
    """
    if replay not in REPLAY_MODES:
        raise ValueError(f"replay must be one of {REPLAY_MODES}: {replay!r}")
    use_replay = replay == "on" or (replay == "auto"
                                    and graph_cache is not None)
    if not use_replay:
        graph_cache = None      # scoring never reads or records graphs
    elif graph_cache is None:
        graph_cache = {}
    pool = _sample(candidates, max_candidates, seed)
    if default not in pool:
        pool = [default] + pool

    entries = {c.key: TraceEntry(candidate=c, model_time=model_time(
        sig, c, params, machine)) for c in pool}

    if model_only:
        for e in entries.values():
            e.status = "model-only"
        order = sorted(entries.values(),
                       key=lambda e: (e.model_time, e.candidate.key))
        best = order[0]
        return SearchOutcome(best=best, default=entries[default.key],
                             trace=list(entries.values()))

    interpolated = False
    if seed_shortlist is not None:
        # Interpolation warm start: the stage-2 pool is the neighbor's
        # surviving shortlist, re-ranked by the analytic model at *this*
        # n.  Seeds outside this workload's valid candidate set (validity
        # depends on n) are dropped, not simulated.
        interpolated = True
        valid_keys = {c.key for c in pool}
        seen = {c.key: entries[c.key] for c in seed_shortlist
                if c.key in valid_keys}
        seeds = sorted(seen.values(),
                       key=lambda e: (e.model_time, e.candidate.key))
        short = seeds[:max(shortlist - 1, 1)]
    elif exhaustive:
        short = list(entries.values())
    else:
        ranked = sorted(entries.values(),
                        key=lambda e: (e.model_time, e.candidate.key))
        short = ranked[:shortlist]
    # The default seeds the incumbent: put it first, simulate it without a
    # deadline, and never let pruning touch it.
    short = [entries[default.key]] + [e for e in short
                                      if e.candidate.key != default.key]

    out = SearchOutcome(best=None, default=entries[default.key],
                        interpolated=interpolated)
    #: schedule key -> (deadline, status, kernel_time, world_time) of the
    #: first entry scored with that key.
    scores: dict[tuple, tuple] = {}
    incumbent: TraceEntry | None = None
    incumbent_world = None
    for entry in short:
        deadline = (None if incumbent_world is None
                    else incumbent_world * DEADLINE_SLACK)
        skey = schedule_key(sig, entry.candidate, params)
        result = _reuse(scores.get(skey), deadline)
        if result is not None:
            # The same program under the same bound: its score is known.
            out.aliased += 1
        else:
            try:
                result = _score(sig, entry.candidate, deadline, out,
                                params=params, machine=machine,
                                graph_cache=graph_cache)
            except DeadlineExceeded:
                if incumbent is None:
                    # The deadline-free default can only get here when a
                    # caller-injected stage raises; dropping it would leave
                    # the search with no incumbent (best=None downstream).
                    # Keep it at its analytic estimate instead.
                    entry.sim_time = entry.model_time
                    entry.status = "deadline-analytic"
                    incumbent = entry
                    continue
                result = ("pruned-deadline", None, None)
            if interpolated and result[0] != "pruned-deadline":
                # A seeded stage 2 is an interpolated decision however the
                # score was produced; the db reader can tell this record's
                # shortlist came from a neighbor, not from enumeration.
                result = ("interpolated",) + result[1:]
            scores[skey] = (deadline,) + result
        entry.status, kernel_time, world_time = result
        if entry.status == "pruned-deadline":
            continue
        entry.sim_time = kernel_time
        if (incumbent is None or kernel_time < incumbent.sim_time
                or (kernel_time == incumbent.sim_time
                    and entry.candidate.key < incumbent.candidate.key)):
            incumbent = entry
        if incumbent_world is None or world_time < incumbent_world:
            incumbent_world = world_time

    out.best = incumbent
    out.trace = sorted(entries.values(), key=lambda e: e.candidate.key)
    return out
