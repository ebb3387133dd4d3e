"""The one harness behind ``run_ssc`` / ``run_ssc25d`` / ``run_summa``.

The paper applies the *same* two techniques (``N_DUP`` nonblocking overlap,
multiple PPN) to Algorithms 3-6 and compares them under identical settings,
so everything around a kernel's rank program — validation, tuning,
placement, world construction, the timed iteration loop, deadlines,
recording metadata, max-over-ranks timing — is :func:`run_kernel`, once.
A kernel contributes a :class:`KernelSpec`, defined next to its rank
program and entered in :data:`KERNELS`; the tuner, the static verifier,
the calibrator and the CLIs look kernels up there instead of switching on
their names.  Adding a kernel is adding one spec (see ``docs/tuning.md``).

A run's configuration is a :class:`~repro.tune.candidates.Candidate` — the
same object the tuner enumerates, scores and records — so "run what the
user spelled out", "run what the tuner picked" and "score this candidate"
are one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.dense.distribution import assemble_matrix, partition_matrix
from repro.mpi.world import RankEnv, World
from repro.netmodel import MachineParams, NetworkParams, block_placement
from repro.netmodel.topology import round_robin_placement
from repro.sim.engine import DeadlineExceeded
from repro.sim.faults import FaultPlan
from repro.sim.trace import SpanKind
from repro.tune.candidates import Candidate, effective_params
from repro.tune.signature import signature_for
from repro.tune.validity import check_placement
from repro.util import check_positive

_TAG_FB = 24  # after the SymmSquareCube kernels' own tags (21-23)


@dataclass(frozen=True)
class KernelSpec:
    """What :func:`run_kernel` and the tools need to know about one kernel.

    In the hook signatures ``cand`` is the
    :class:`~repro.tune.candidates.Candidate` being run or examined, ``n``
    the matrix dimension and ``sig`` a workload signature.
    """

    #: Registry key; also ``Candidate.kernel``, ``WorkloadSignature.kernel``
    #: and ``recorder.meta["kernel"]``.
    name: str
    #: The runner's mesh-shape arguments (``("p",)``, ``("q", "c")`` — also
    #: the CLIs' flags) and the map from them to ``(pi, pj, pk)``.
    shape_flags: tuple[str, ...]
    mesh_shape: Callable[..., tuple[int, int, int]]
    #: ``validate(cand, n, num_channels)`` raises ``ValueError`` on a
    #: configuration the kernel cannot run (``num_channels=None``: fabric
    #: not known yet).
    validate: Callable[[Candidate, int, int | None], None]
    make_mesh: Callable[[World, Candidate], Any]
    #: ``call(env, mesh, n, cand, real, *blocks)`` -> the generator of one
    #: timed call (the rank program).  ``blocks`` are this rank's blocks of
    #: the real-mode inputs (absent in modeled mode); the generator returns
    #: the rank's block of :attr:`outputs` (a tuple of blocks when there
    #: are several outputs).
    call: Callable[..., Any]
    #: Result fields assembled from the front-face ranks' returned blocks.
    outputs: tuple[str, ...]
    result_type: type
    flops: Callable[[int], float]          #: flops of one call (for TFlop/s)
    #: ``describe(cand, n)`` -> the ``run_x(...)`` text of deadline errors.
    describe: Callable[[Candidate, int], str]
    #: ``population(cand, n)`` -> every collective op shape the kernel can
    #: post, as ``(verb, comm_size, root, n_elems, itemsize)`` — the kernel
    #: side of :func:`repro.analysis.schedule.check_plans`.
    population: Callable[[Candidate, int], Iterable[tuple]]
    #: ``axes(sig)`` -> the ``(algorithm, mesh, n_dup, depth)`` combinations
    #: the tuner sweeps (it adds the PPN and collective axes and filters
    #: with :attr:`validate`); ``default(sig)`` -> the paper's configuration,
    #: the tuning baseline; ``estimate(cand, n, params, machine)`` -> the
    #: analytic time [s] that ranks candidates before simulation.
    axes: Callable[[Any], Iterable[tuple]]
    default: Callable[[Any], Candidate]
    estimate: Callable[..., float]
    #: ``check_data(*data)`` rejects real-mode inputs the kernel cannot take.
    check_data: Callable[..., None] = lambda *data: None
    #: Each timed call is preceded by a mesh-wide barrier.
    barrier: bool = True
    #: ``degrade(cand)`` -> the blocking configuration to run instead while
    #: a link-degradation window is active, or ``None`` (no fallback).
    degrade: Callable[[Candidate], Candidate | None] = lambda cand: None
    #: ``lanes(cand)`` -> fabric channels the candidate pins traffic to.
    lanes: Callable[[Candidate], int] = lambda cand: 1
    #: ``static_checks(cand, n, params, seen)`` yields ``(counter, findings)``
    #: per kernel-specific static check beyond the collective population
    #: (``counter`` names a ``PlanCheckReport`` field; ``seen`` is a
    #: walk-wide set for deduplication).
    static_checks: Callable[..., Iterable[tuple]] = lambda *a: ()


#: ``name -> KernelSpec`` for every tunable, verifiable kernel.
KERNELS: dict[str, KernelSpec] = {}


def register(spec: KernelSpec) -> KernelSpec:
    """Enter ``spec`` in :data:`KERNELS` (kernel modules call this on import)."""
    KERNELS[spec.name] = spec
    return spec


@dataclass
class KernelResult:
    """What every :func:`run_kernel` run returns; subclasses add the outputs."""

    times: list[float]             # per-call elapsed virtual seconds (max over ranks)
    n: int                         # matrix dimension
    world: World
    mesh: Any
    config: Candidate              # the configuration that actually ran
    flops: float                   # flops of one call
    fallbacks: int = 0             # iterations that degraded to the blocking variant
    tuning: "TuningRecord | None" = None  # decision trace when run with tune=  # noqa: F821
    recording: "GraphRecorder | None" = None  # event graph when run with record=True  # noqa: F821
    elapsed: float = field(init=False)  # mean per-call time

    def __post_init__(self) -> None:
        self.elapsed = sum(self.times) / len(self.times)

    @property
    def tflops(self) -> float:
        """Mean achieved TFlop/s of the kernel — the paper's reported metric."""
        return self.flops / self.elapsed / 1e12


def negotiate_fallback(env, gv, local_flag: bool):
    """Generator: agree communicator-wide on a nonblocking->blocking fallback.

    Ranks observe the fault state at slightly different virtual times, so a
    purely local decision could split the mesh between the overlapped
    program and its blocking fallback and deadlock.  Rank 0 gathers every
    rank's flag, takes the OR, and distributes the verdict with 1-byte
    control messages (a tiny, fully deterministic control round — its cost
    is modeled like any other traffic).
    """
    flags = yield from gv.gather(data=bool(local_flag), nbytes=1, root=0)
    if gv.rank == 0:
        decision = any(flags)
        for dst in range(1, gv.size):
            yield from gv.send(dst, data=decision, nbytes=1, tag=_TAG_FB)
        return decision
    decision = yield from gv.recv(0, tag=_TAG_FB)
    return bool(decision)


def run_kernel(
    spec: KernelSpec,
    cand: Candidate,
    n: int,
    data: tuple = (),
    *,
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
) -> KernelResult:
    """Run ``iterations`` timed calls of ``spec``'s kernel on a fresh world.

    ``cand`` carries the kernel's own knobs (variant, mesh, ``N_DUP`` /
    colors, depth) plus PPN and the collective override.  ``data`` holds
    the ``n x n`` input matrices: given, they are block-distributed over
    the mesh's front face and the outputs assembled from it (real mode);
    omitted or ``None``, the kernel is timed at full paper scale without
    allocating matrix data (modeled mode).  Each call is timed as the max
    across ranks.  The keyword options are shared by every kernel runner:

    ``placement``
        ``"block"`` is the paper's natural assignment (consecutive ranks
        share a node, §V-D); ``"round_robin"`` deals them across nodes.
    ``trace``
        Collect activity spans and per-flow link occupancy (the inputs of
        :mod:`repro.analytics`).
    ``faults``
        Attach a :class:`~repro.sim.faults.FaultPlan`.  A kernel with a
        blocking fallback (``spec.degrade``) then degrades gracefully:
        before each call the ranks agree (:func:`negotiate_fallback`) on
        whether a link-degradation window is active and, if so, run the
        fallback for that call — counted in ``result.fallbacks`` and traced
        as ``fallback:blocking`` MISC spans.
    ``verify`` / ``verify_plans``
        Attach the runtime verifier / prove every collective plan set
        deadlock-free and zero-copy sound before its first execution (any
        RA3xx error raises
        :class:`~repro.analysis.schedule.PlanVerificationError`).
    ``tune`` / ``tune_db``
        Hand the configuration to :mod:`repro.tune`: a policy string
        (``"auto"``, ``"model-only"``, ``"exhaustive"``, ``"db-only"``)
        builds a private :class:`~repro.tune.tuner.Tuner`, warm-started
        from ``tune_db``; a ``Tuner``/``TuningService`` object is used
        directly, so many runs share one warm cache.  The chosen candidate
        replaces ``cand`` and the decision lands on ``result.tuning``.
    ``deadline``
        Bound the simulation at that virtual time and raise
        :class:`~repro.sim.engine.DeadlineExceeded` if a rank program is
        unfinished — the tuner's early-termination hook.
    ``record``
        Capture the event dependency graph (``result.recording``).
    """
    check_positive("iterations", iterations)
    check_placement(placement)
    tuning = None
    if tune is not None:
        from repro.tune.tuner import Tuner

        # Reject a malformed request before paying for a search.
        spec.validate(cand, n, None if params is None else params.num_channels)
        tuner = (Tuner(db=tune_db, policy=tune) if isinstance(tune, str)
                 else tune)
        sig = signature_for(spec.name, cand.mesh, n, ppn=cand.ppn,
                            placement=placement, params=params,
                            machine=machine)
        tuning = tuner.tune(sig, params=params, machine=machine)
        cand = tuning.best
    if tune is not None or params is None:
        # A tuned run, and a run that names no fabric, get the candidate's
        # own; explicit params of a direct call are taken as given (and
        # rejected below if they lack the lanes the candidate pins).
        params = effective_params(cand, params)
    spec.validate(cand, n, params.num_channels)
    real = any(x is not None for x in data)
    if real:
        if any(x is None for x in data):
            raise ValueError("pass every input matrix, or none")
        spec.check_data(*data)
    ranks = math.prod(cand.mesh)
    if placement == "block":
        cluster = block_placement(ranks, cand.ppn)
    else:  # "round_robin" — check_placement already rejected anything else
        cluster = round_robin_placement(ranks, -(-ranks // cand.ppn))
    world = World(cluster, params=params, machine=machine, trace=trace,
                  faults=faults, verify=verify, verify_plans=verify_plans,
                  record=record)
    mesh = spec.make_mesh(world, cand)
    degraded = spec.degrade(cand) if faults is not None else None
    # Inputs and outputs live in side x side blocks on the mesh's front
    # face: rank r < side^2 holds block divmod(r, side), on 2D and 3D meshes.
    side = cand.mesh[0]
    parts = [partition_matrix(x, side) for x in data] if real else []

    def program(env: RankEnv):
        blocks = [part.get(divmod(env.rank, side)) for part in parts]
        gv = env.view(mesh.global_comm)
        times = []
        out = None
        fallbacks = 0
        for it in range(iterations):
            if spec.barrier:
                yield from gv.barrier()
            t0 = env.now
            env.mark("t0", it)
            run = cand
            if degraded is not None:
                flag = faults.link_degraded(env.now)
                if (yield from negotiate_fallback(env, gv, flag)):
                    fallbacks += 1
                    world.trace.add(env.rank, env.now, env.now, SpanKind.MISC,
                                    "fallback:blocking")
                    run = degraded
            out = yield from spec.call(env, mesh, n, run, real, *blocks)
            env.mark("t1", it)
            times.append(env.now - t0)
        return (times, out, fallbacks)

    world.spawn_all(program, ranks=range(ranks))
    world.run(until=deadline)
    if deadline is not None and world.unfinished():
        raise DeadlineExceeded(
            f"{spec.describe(cand, n)} exceeded deadline {deadline:.6g}s: "
            f"{len(world.unfinished())} rank program(s) unfinished"
        )
    if world.recorder is not None:
        world.recorder.meta.update(kernel=spec.name, ranks=ranks,
                                   iterations=iterations)
    outs = world.results()
    # Per-call kernel time: max across ranks, the metric the tuner compares
    # (Engine.run(until=) pins the world clock to the deadline, so the
    # engine's final time is not usable under bounded runs).
    iter_times = [max(o[0][it] for o in outs) for it in range(iterations)]
    outputs = {}
    if real:
        front = [o[1] if len(spec.outputs) > 1 else (o[1],)
                 for o in outs[:side * side]]
        outputs = {
            name: assemble_matrix({divmod(r, side): blks[idx]
                                   for r, blks in enumerate(front)}, n, side)
            for idx, name in enumerate(spec.outputs)}
    return spec.result_type(
        times=iter_times, n=n, world=world, mesh=mesh, config=cand,
        flops=spec.flops(n), fallbacks=max(o[2] for o in outs),
        tuning=tuning, recording=world.recorder, **outputs,
    )
