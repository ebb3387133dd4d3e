"""The simulated MPI job: engine + cluster + fabric + transport + programs.

:class:`World` wires every layer together and owns ``comm_world``.  Rank
programs are generator functions of one argument, the :class:`RankEnv`::

    world = World(block_placement(8, ppn=2))

    def program(env):
        comm = env.view(world.comm_world)
        data = np.arange(4.0) if comm.rank == 0 else np.zeros(4)
        yield from comm.bcast(data, root=0)
        return data.sum()

    world.spawn_all(program)
    elapsed = world.run()
"""

from __future__ import annotations

from collections.abc import Callable, Generator

import numpy as np

from repro.mpi.comm import Comm, CommView
from repro.mpi.progress import ProgressEngine
from repro.mpi.transport import Transport
from repro.netmodel.fabric import Fabric
from repro.netmodel.params import MachineParams, NetworkParams
from repro.netmodel.topology import Cluster
from repro.sim.engine import Engine, SimulationError
from repro.sim.faults import FaultPlan
from repro.sim.process import Delay, SimProcess
from repro.sim.trace import SpanKind, Trace


class World:
    """One simulated distributed-memory job."""

    def __init__(
        self,
        cluster: Cluster,
        params: NetworkParams | None = None,
        machine: MachineParams | None = None,
        trace: bool = False,
        faults: FaultPlan | None = None,
        verify: bool = False,
        verifier=None,
        verify_plans: bool = False,
        record: bool = False,
    ):
        self.cluster = cluster
        self.params = params or NetworkParams()
        self.machine = machine or MachineParams()
        self.engine = Engine()
        # The recorder must attach before any SimEvent exists: recording
        # worlds store event callbacks with their causal context, and mixing
        # pre-recorder events into that scheme is not supported.
        self.recorder = None
        if record:
            from repro.sim.replay import GraphRecorder

            rec = GraphRecorder(cluster=cluster, params=self.params,
                                machine=self.machine)
            if faults is not None:
                rec.invalidate("fault plan attached")
            self.engine.recorder = rec
            self.recorder = rec
        self.trace = Trace(enabled=trace)
        self.faults = faults
        # The runtime correctness verifier (repro.analysis) must exist before
        # comm_world so communicator creation is observed.  Its hooks are
        # passive: a verified run is timing-identical to an unverified one.
        if verifier is None and verify:
            from repro.analysis.verifier import CommVerifier

            verifier = CommVerifier()
        self.verifier = verifier
        if verifier is not None:
            verifier.attach(self)
        # Opt-in debug gate: statically verify every cached collective plan
        # set the first time a runner executes it (RA3xx findings raise a
        # PlanVerificationError; see repro.analysis.schedule).
        self.verify_plans = verify_plans
        if faults is not None:
            faults.reset()  # a reused plan replays identically in a new world
        self.fabric = Fabric(self.engine, cluster, self.params,
                             self.trace if trace else None, faults=faults)
        self.transport = Transport(self)
        self._cid = 0
        self._progress = [
            ProgressEngine(self.engine, r, self.trace if trace else None,
                           faults=faults)
            for r in range(cluster.num_ranks)
        ]
        # Per-rank achieved GEMM rate: node throughput shared by co-resident
        # processes (the paper's per-process effect of raising PPN).
        self._flop_rate = [
            self.machine.process_flops(cluster.ppn_of_node(cluster.node_of(r)))
            for r in range(cluster.num_ranks)
        ]
        self.comm_world = Comm(self, range(cluster.num_ranks), name="world")
        self._procs: list[SimProcess] = []
        self._proc_ranks: list[int] = []

    # -- plumbing ---------------------------------------------------------------

    @property
    def num_ranks(self) -> int:
        return self.cluster.num_ranks

    def _next_cid(self) -> int:
        self._cid += 1
        return self._cid

    def progress_of(self, global_rank: int) -> ProgressEngine:
        return self._progress[global_rank]

    def flop_rate_of(self, global_rank: int) -> float:
        return self._flop_rate[global_rank]

    def new_comm(self, ranks, name: str = "comm", channel: int = 0) -> Comm:
        """Create a communicator over ``ranks`` (global ids).

        ``channel`` pins the communicator's wire traffic to a fabric lane
        (see :class:`~repro.netmodel.NetworkParams.num_channels`).
        """
        return Comm(self, ranks, name, channel=channel)

    # -- running ---------------------------------------------------------------------

    def spawn(self, rank: int, gen: Generator, name: str | None = None) -> SimProcess:
        """Register one rank's program generator."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside world")
        proc = SimProcess(self.engine, gen, name or f"rank{rank}")
        rec = self.engine.recorder
        if rec is not None:
            # Replay needs every program's finish instant: bounded runs turn
            # into DeadlineExceeded exactly when one of these marks lands
            # past the deadline.
            key = ("proc_done", rank, len(self._procs))
            eng = self.engine

            def _mark_done(_ev, _key=key, _eng=eng, _rec=rec):
                _rec.mark(_key, _eng._rec_now())

            proc.done.add_callback(_mark_done)
        self._procs.append(proc)
        self._proc_ranks.append(rank)
        return proc

    def spawn_all(
        self, program: Callable[["RankEnv"], Generator], ranks=None
    ) -> list[SimProcess]:
        """Instantiate ``program(env)`` on every rank (or the given subset)."""
        ranks = range(self.num_ranks) if ranks is None else ranks
        return [self.spawn(r, program(RankEnv(self, r))) for r in ranks]

    def run(self, until: float | None = None) -> float:
        """Drive the simulation to completion; returns elapsed virtual time.

        Raises :class:`SimulationError` with matching diagnostics if any
        spawned program never finishes (communication deadlock).
        """
        t = self.engine.run(until=until)
        if until is None:
            stuck_idx = [i for i, p in enumerate(self._procs)
                         if not p.done.fired]
            if stuck_idx:
                stuck = [self._procs[i].name for i in stuck_idx]
                ns, nr = self.transport.pending_counts()
                msg = (
                    f"deadlock: {stuck} never finished "
                    f"(unmatched sends={ns}, unmatched recvs={nr})"
                )
                if self.verifier is not None:
                    stuck_ranks = sorted({self._proc_ranks[i]
                                          for i in stuck_idx})
                    report = self.verifier.on_deadlock(self, stuck_ranks)
                    if report:
                        msg += "\n" + report
                raise SimulationError(msg)
            if self.verifier is not None:
                self.verifier.finalize(self)
        return t

    def unfinished(self) -> list[str]:
        """Names of spawned programs that have not finished.

        Non-empty after a bounded ``run(until=...)`` means the deadline cut
        the simulation short (callers such as the autotuner turn this into
        :class:`~repro.sim.engine.DeadlineExceeded`).
        """
        return [p.name for p in self._procs if not p.done.fired]

    def results(self) -> list:
        """Return values of all spawned programs, in spawn order."""
        return [p.done.value for p in self._procs]


class RankEnv:
    """Per-rank execution context handed to program generators."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank

    @property
    def now(self) -> float:
        return self.world.engine.now

    def view(self, comm: Comm) -> CommView:
        """This rank's API handle on ``comm`` (must be a member)."""
        return comm.view(self.rank)

    def mark(self, label: str, idx: int = 0) -> None:
        """Recording: name the current instant ``(label, rank, idx)`` in the
        event graph, so the replayer can reproduce derived timings (e.g. the
        kernels' per-iteration spans).  No-op unless the world records."""
        rec = self.world.engine.recorder
        if rec is not None:
            rec.mark((label, self.rank, idx), self.world.engine._rec_now())

    def compute(self, seconds: float, label: str = "compute"):
        """Generator: occupy this rank's CPU for ``seconds`` (traced).

        Straggler windows of the world's FaultPlan dilate the busy span
        (piecewise, so only the overlapping part runs slowed down).
        """
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds}")
        t0 = self.now
        if seconds > 0:
            faults = self.world.faults
            if faults is not None:
                seconds = faults.compute_finish(self.rank, t0, seconds) - t0
            yield Delay(seconds)
        self.world.trace.add(self.rank, t0, self.now, SpanKind.COMPUTE, label)

    def compute_flops(self, flops: float, label: str = "gemm"):
        """Generator: charge ``flops`` at this rank's achieved GEMM rate."""
        if flops < 0:
            raise ValueError(f"negative flops {flops}")
        rate = self.world.flop_rate_of(self.rank)
        yield from self.compute(flops / rate, label)

    def gemm(self, a: np.ndarray | None, b: np.ndarray | None, m: int, k: int, n: int,
             accumulate: np.ndarray | None = None, label: str = "gemm"):
        """Generator: local matrix multiply with modeled time charge.

        Real mode (arrays given): computes ``a @ b`` (optionally accumulated
        into ``accumulate``) and returns the product; modeled mode (``a`` or
        ``b`` None): returns None.  Either way charges ``2*m*k*n`` flops.
        """
        yield from self.compute_flops(2.0 * m * k * n, label)
        if a is None or b is None:
            return None
        c = a @ b
        if accumulate is not None:
            accumulate += c
            return accumulate
        return c

    def sleep(self, seconds: float):
        """Generator: idle (not CPU-busy — equivalent for timing) for ``seconds``."""
        if seconds < 0:
            raise ValueError(f"negative sleep {seconds}")
        yield Delay(seconds)
