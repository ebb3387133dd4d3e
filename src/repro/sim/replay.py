"""Event-graph record/replay: re-price a workload without re-simulating it.

The paper's central move is re-evaluating one communication schedule under
different network constants; the tuner's simulator stage does exactly that
hundreds of times per search by re-running the full discrete-event loop.
This module makes the schedule a first-class artifact instead: a run with
recording enabled captures the workload's *event dependency graph* — every
transfer (with its endpoints, size and protocol latency), every compute
delay, and every precedence edge (max/plus joins) between them — and a
:func:`replay` solves the timeline directly on that graph under perturbed
:class:`~repro.netmodel.params.NetworkParams`, with no per-event process
dispatch, no transport matching, and no collective state machines.

Why this is exact
-----------------
CPU-side timing in the simulator is *max-plus*: every event time is either
a constant, a predecessor's time plus a non-negative delta (compute,
overheads, protocol gaps — all priced from must-match constants), or the
max of predecessor times (waits, barriers, collective round completion).
Float ``max`` is exact and ``a + delta`` is a single IEEE addition, so the
recorded graph reproduces those times bit-for-bit by construction.  Flow
completion times are *not* max-plus (they depend on fair-share rate
dynamics), so the replayer does not model them: it drives the real
:class:`~repro.netmodel.fabric.Fabric` — the same code, the same floats —
posting each recorded flow at its graph-resolved time.  Only the fabric's
own two-events-per-flow mini-simulation runs; everything the process,
transport, progress and collective layers did to *decide* that schedule is
replaced by array lookups on the graph.

Validity envelope
-----------------
A recording stays valid only for parameter changes that cannot alter the
*structure* of the schedule (which messages exist, their sizes, protocol
choices, code paths taken).  Concretely:

* Only :data:`REPLAY_SAFE_FIELDS` of ``NetworkParams`` may differ between
  recording and replay — these are priced exclusively inside the fabric at
  flow time.  Every other field (overheads, thresholds, protocol constants)
  is charged CPU-side into recorded deltas or steers a branch, so it must
  match exactly.
* ``MachineParams``, the cluster (rank placement) and the workload itself
  must match — :func:`Recording.check_compatible` raises
  :class:`ReplayInvalid` otherwise.
* Runs with a :class:`~repro.sim.faults.FaultPlan` attached never produce a
  valid recording (fault windows are time-dependent, not structural), and
  neither do runs using timing-*dependent* control flow the graph cannot
  express: ``AnyOf`` / ``waitany`` races, ``Request.test`` polling,
  process interrupts, cancellation of recorded events, or the numeric-mode
  combine batcher.  The hooks detect each of these and mark the recording
  invalid; :func:`replay` then refuses and the caller falls back to full
  simulation.
* FIFO compute queues (:class:`~repro.mpi.progress.ProgressEngine`) are
  max-plus only while submissions stay in arrival order; the recorder
  stores consecutive-arrival order guards and :func:`replay` verifies them
  under the new constants, refusing when a perturbation would reorder a
  queue.

See ``docs/perf.md`` for the benchmark (``perf_sim_core`` section
``replay``) and ``docs/tuning.md`` for the tuner integration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, field

from repro.netmodel.params import MachineParams, NetworkParams
from repro.sim.engine import DeadlineExceeded, Engine, SimulationError

#: ``NetworkParams`` fields that may differ between recording and replay:
#: they are read exclusively by the fabric while flows drain, so changing
#: them re-prices the recorded schedule without restructuring it.
REPLAY_SAFE_FIELDS = frozenset({
    "alpha",
    "shm_alpha",
    "nic_bandwidth",
    "process_injection_bandwidth",
    "shm_bandwidth",
    "shm_flow_cap",
    "flow_half_size",
})

#: Node kinds of the recorded max-plus graph.
K_CONST, K_SHIFT, K_MAX, K_FLOW = 0, 1, 2, 3

#: Serialized-recording schema.  v2 adds the ``machine`` constants so a
#: loaded recording can enforce its full validity envelope in a fresh
#: process; v1 artifacts (no machine) still load with ``machine=None``.
DUMP_SCHEMA = 2


class ReplayInvalid(SimulationError):
    """The recorded graph cannot reproduce the requested run exactly."""


class GraphRecorder:
    """Grows the max-plus event graph during a recorded simulation run.

    Node ``i`` is described by ``kinds[i]`` plus operands ``a[i]`` /
    ``b[i]``:

    =========  ======================  =====================================
    kind       a / b                   value
    =========  ======================  =====================================
    K_CONST    time / —                ``a``
    K_SHIFT    pred node / delta       ``value(a) + b``
    K_MAX      tuple of pred nodes     ``max(value(p) for p in a)``
    K_FLOW     flow index / —          completion time of ``flows[a]``
    =========  ======================  =====================================

    Nodes are hash-consed (``shift(x, 0.0)`` is ``x``, ``join2(x, x)`` is
    ``x``, nested maxes flatten), so the graph stays proportional to the
    number of *distinct* causal facts, not to how often they are cited.
    """

    def __init__(self, cluster=None, params: NetworkParams | None = None,
                 machine: MachineParams | None = None):
        self.kinds: list[int] = []
        self.a: list = []
        self.b: list = []
        self._cons: dict = {}
        #: (src_rank, dst_rank, nbytes, extra_latency, post_node) per flow.
        self.flows: list[tuple] = []
        #: user-visible labels -> node (kernel timestamps, proc completions).
        self.marks: dict = {}
        #: FIFO order guards: replay requires value(lo) <= value(hi).
        self.guards: list[tuple[int, int]] = []
        self.invalid_reason: str | None = None
        self.cluster = cluster
        self.params = params or NetworkParams()
        self.machine = machine
        #: free-form workload metadata (kernel name, ranks, iterations).
        self.meta: dict = {}
        #: lazily-built structural fold (see :func:`_fold_static`) — the
        #: static timeline is parameter-independent, so repeated replays of
        #: one recording share it.
        self._plan = None

    # -- node constructors --------------------------------------------------

    def _node(self, kind: int, a, b=None) -> int:
        idx = len(self.kinds)
        self.kinds.append(kind)
        self.a.append(a)
        self.b.append(b)
        return idx

    def const(self, t: float) -> int:
        key = (K_CONST, t)
        idx = self._cons.get(key)
        if idx is None:
            self._cons[key] = idx = self._node(K_CONST, t)
        return idx

    def shift(self, pred: int, delta: float) -> int:
        if delta == 0.0:
            return pred  # x + 0.0 == x for the non-negative times used here
        key = (K_SHIFT, pred, delta)
        idx = self._cons.get(key)
        if idx is None:
            self._cons[key] = idx = self._node(K_SHIFT, pred, delta)
        return idx

    def join2(self, x: int | None, y: int | None) -> int | None:
        """max(x, y) as a node; ``None`` means "no constraint"."""
        if x is None or x == y:
            return y
        if y is None:
            return x
        preds: set[int] = set()
        for n in (x, y):
            if self.kinds[n] == K_MAX:
                preds.update(self.a[n])
            else:
                preds.add(n)
        if len(preds) == 1:
            return next(iter(preds))
        key = (K_MAX, frozenset(preds))
        idx = self._cons.get(key)
        if idx is None:
            self._cons[key] = idx = self._node(K_MAX, tuple(sorted(preds)))
        return idx

    def flow(self, src_rank: int, dst_rank: int, nbytes: float,
             extra_latency: float, post_node: int) -> int:
        fidx = len(self.flows)
        self.flows.append((src_rank, dst_rank, nbytes, extra_latency, post_node))
        return self._node(K_FLOW, fidx)

    def mark(self, key, node: int) -> None:
        self.marks[key] = node

    def guard(self, lo: int, hi: int) -> None:
        if lo != hi:
            self.guards.append((lo, hi))

    def invalidate(self, reason: str) -> None:
        if self.invalid_reason is None:
            self.invalid_reason = reason

    # -- validity -----------------------------------------------------------

    @property
    def valid(self) -> bool:
        return self.invalid_reason is None

    def check_compatible(self, params: NetworkParams | None,
                         machine: MachineParams | None = None) -> None:
        """Raise :class:`ReplayInvalid` unless ``params``/``machine`` stay
        inside the recording's validity envelope."""
        if self.invalid_reason is not None:
            raise ReplayInvalid(f"recording invalid: {self.invalid_reason}")
        if machine is not None and machine != self.machine:
            raise ReplayInvalid("machine constants differ from the recording")
        p = params or NetworkParams()
        for f in fields(NetworkParams):
            if f.name in REPLAY_SAFE_FIELDS:
                continue
            if getattr(p, f.name) != getattr(self.params, f.name):
                raise ReplayInvalid(
                    f"structural parameter {f.name!r} differs from the "
                    f"recording ({getattr(p, f.name)!r} != "
                    f"{getattr(self.params, f.name)!r})"
                )

    # -- serialization (CI artifact / offline inspection) -------------------

    def to_jsonable(self) -> dict:
        placement = None
        if self.cluster is not None:
            placement = [self.cluster.node_of(r)
                         for r in range(self.cluster.num_ranks)]
        return {
            "schema": DUMP_SCHEMA,
            "valid": self.valid,
            "invalid_reason": self.invalid_reason,
            "kinds": list(self.kinds),
            "a": [list(x) if isinstance(x, tuple) else x for x in self.a],
            "b": list(self.b),
            "flows": [list(f) for f in self.flows],
            "marks": {repr(k): v for k, v in sorted(
                self.marks.items(), key=lambda kv: repr(kv[0]))},
            "guards": [list(g) for g in self.guards],
            "placement": placement,
            "params": {f.name: getattr(self.params, f.name)
                       for f in fields(NetworkParams)},
            "machine": (None if self.machine is None else
                        {f.name: getattr(self.machine, f.name)
                         for f in fields(MachineParams)}),
            "meta": dict(self.meta),
        }


#: Back-compat name: a sealed recorder *is* the recording artifact.
Recording = GraphRecorder


@dataclass
class ReplayResult:
    """What one :func:`replay` pass produced."""

    final_time: float                 #: natural finish (max event time)
    marks: dict = field(default_factory=dict)  #: label -> resolved time
    flow_times: list = field(default_factory=list)  #: per recorded flow
    n_nodes: int = 0
    n_flows: int = 0


def _fold_static(rec: GraphRecorder):
    """One topological pass over the graph, cached on the recording.

    Everything here is parameter-independent: which nodes are static, their
    folded values (consts and deltas are recorded, not re-priced), the
    dependent lists of flow-blocked nodes, and which flows each post node
    releases.  Replays copy the two mutable arrays and run only the dynamic
    propagation.
    """
    if rec._plan is not None:
        return rec._plan
    kinds, A, B = rec.kinds, rec.a, rec.b
    n = len(kinds)
    values: list = [None] * n
    nun = [0] * n                       # unresolved-predecessor counts
    deps: list = [None] * n             # node -> dependent nodes
    posts_by_node: dict[int, list[int]] = {}   # post node -> flow indices
    flow_node: list = [None] * len(rec.flows)  # flow index -> K_FLOW node

    def add_dep(p: int, i: int) -> None:
        dl = deps[p]
        if dl is None:
            deps[p] = [i]
        else:
            dl.append(i)

    # The pass folds every node whose predecessors are all static
    # (predecessors always precede their node in creation order); nodes
    # blocked behind a flow get an unresolved-predecessor count instead.
    for i in range(n):
        k = kinds[i]
        if k == K_CONST:
            values[i] = A[i]
        elif k == K_SHIFT:
            p = A[i]
            if nun[p] == 0:
                values[i] = values[p] + B[i]
            else:
                nun[i] = 1
                add_dep(p, i)
        elif k == K_MAX:
            cnt = 0
            m = None
            for p in A[i]:
                if nun[p] == 0:
                    pv = values[p]
                    if m is None or pv > m:
                        m = pv
                else:
                    cnt += 1
                    add_dep(p, i)
            nun[i] = cnt
            values[i] = m  # final when cnt == 0, else the partial max
        else:  # K_FLOW
            nun[i] = 1
            flow_node[A[i]] = i
            post = rec.flows[A[i]][4]
            posts_by_node.setdefault(post, []).append(A[i])

    # Dense node -> released-flows array: the resolve loop probes this for
    # every resolved node, and a list index beats a dict miss.
    posts_arr: list = [None] * n
    for post, fis in posts_by_node.items():
        posts_arr[post] = fis
    rec._plan = (values, nun, deps, posts_arr, flow_node)
    return rec._plan


def replay(recording: GraphRecorder, params: NetworkParams | None = None,
           machine: MachineParams | None = None,
           deadline: float | None = None) -> ReplayResult:
    """Solve the recorded timeline under ``params``; exact by construction.

    Static (max-plus) nodes are folded in one (cached) topological pass;
    flow nodes are resolved by a fresh
    :class:`~repro.netmodel.fabric.Fabric` fed the recorded transfers at
    their graph-resolved post times.  Raises :class:`ReplayInvalid` when
    the recording's envelope is violated.

    With a ``deadline``, the replay **aborts early**: the moment any
    ``proc_done`` mark resolves past the deadline — statically, or during
    flow propagation inside the fabric mini-simulation — it raises
    :class:`~repro.sim.engine.DeadlineExceeded` instead of folding the rest
    of the graph.  This mirrors the live simulator's bounded
    ``World.run(until=...)`` contract: a candidate that cannot beat the
    incumbent costs only the replay work up to the proof, not a full solve.
    """
    from repro.netmodel.fabric import Fabric

    recording.check_compatible(params, machine)
    rec = recording
    kinds, B = rec.kinds, rec.b
    n = len(kinds)
    flows = rec.flows
    values0, nun0, deps, posts_arr, flow_node = _fold_static(rec)
    values = values0.copy()
    nun = nun0.copy()

    # Early-abort bookkeeping: the set of graph nodes whose resolution
    # proves a rank program's completion time.  Static times are
    # parameter-independent (recorded consts + deltas), so statically
    # resolved completions are checked before the fabric even spins up.
    done_nodes: frozenset | None = None
    if deadline is not None:
        done_nodes = frozenset(
            node for key, node in rec.marks.items()
            if isinstance(key, tuple) and key and key[0] == "proc_done"
        )
        for node in done_nodes:
            if nun[node] == 0 and values[node] is not None \
                    and values[node] > deadline:
                raise DeadlineExceeded(
                    f"replayed run exceeded deadline {deadline:.6g}s "
                    f"(rank program finished at {values[node]:.6g}s; "
                    f"aborted before fabric replay)"
                )

    eng = Engine()
    cluster = rec.cluster
    if cluster is None:
        raise ReplayInvalid("recording carries no cluster topology")
    fab = Fabric(eng, cluster, params or rec.params)
    schedule_at = eng.schedule_at
    transfer_cb = fab.transfer_cb

    def post_flow(fi: int, when: float) -> None:
        src, dst, nbytes, extra, _post = flows[fi]
        if when < eng.now:
            raise ReplayInvalid(
                f"non-causal flow post: t={when} < now={eng.now}"
            )
        schedule_at(when, transfer_cb, src, dst, nbytes, extra, flow_done, fi)

    # Propagation runs once per flow completion — the hot loop of a replay.
    # Everything it touches is bound as a default argument: locals, not
    # closure cells.  Iterative, because recursion could exceed the stack on
    # deep shift chains.
    def flow_done(fi: int, values=values, nun=nun, deps=deps,
                  posts_arr=posts_arr, kinds=kinds, B=B,
                  flow_node=flow_node, K_SHIFT=K_SHIFT,
                  done_nodes=done_nodes, deadline=deadline) -> None:
        stack = [(flow_node[fi], eng.now)]
        while stack:
            i, v = stack.pop()
            values[i] = v
            nun[i] = 0
            if done_nodes is not None and i in done_nodes and v > deadline:
                # First resolved completion past the incumbent: stop the
                # mini-simulation here.  Engine.run propagates callback
                # exceptions, so this unwinds straight out of replay().
                raise DeadlineExceeded(
                    f"replayed run exceeded deadline {deadline:.6g}s "
                    f"(rank program finished at {v:.6g}s; replay aborted)"
                )
            fis = posts_arr[i]
            if fis is not None:
                for pfi in fis:
                    post_flow(pfi, v)
            dl = deps[i]
            if not dl:
                continue
            for d in dl:
                if kinds[d] == K_SHIFT:
                    stack.append((d, v + B[d]))
                else:  # K_MAX
                    pm = values[d]
                    if pm is None or v > pm:
                        values[d] = v
                    nd = nun[d] - 1
                    nun[d] = nd
                    if nd == 0:
                        stack.append((d, values[d]))

    # Kick off every flow whose post time resolved statically; the rest
    # cascade from flow completions inside the mini-simulation.
    for post, fis in enumerate(posts_arr):
        if fis is not None and nun[post] == 0:
            for fi in fis:
                post_flow(fi, values[post])
    eng.run()

    unresolved = sum(1 for i in range(n) if nun[i] != 0)
    if unresolved:
        raise ReplayInvalid(
            f"{unresolved} graph node(s) never resolved (incomplete recording)"
        )
    for lo, hi in rec.guards:
        if values[lo] > values[hi]:
            raise ReplayInvalid(
                "perturbation reorders a FIFO compute queue "
                f"({values[lo]} > {values[hi]}); falling back to simulation"
            )
    final = eng.now
    for v in values:
        if v is not None and v > final:
            final = v
    return ReplayResult(
        final_time=final,
        marks={k: values[node] for k, node in rec.marks.items()},
        flow_times=[values[fn] for fn in flow_node],
        n_nodes=n,
        n_flows=len(rec.flows),
    )


def replay_kernel(recording: GraphRecorder,
                  params: NetworkParams | None = None,
                  machine: MachineParams | None = None,
                  deadline: float | None = None) -> tuple[float, float]:
    """Replay a recorded kernel run; mirror of
    :func:`repro.tune.search.simulate_candidate`'s return contract.

    Returns ``(kernel_time, world_time)`` computed exactly as the live
    kernel computes them (per-rank ``t1 - t0``, max over ranks per
    iteration, mean over iterations) and raises :class:`DeadlineExceeded`
    iff the live bounded run would have left a rank program unfinished at
    ``deadline`` — aborting the replay at the first such proof instead of
    folding the whole graph (see :func:`replay`).
    """
    meta = recording.meta
    try:
        ranks = meta["ranks"]
        iterations = meta["iterations"]
    except KeyError as exc:
        raise ReplayInvalid(f"recording lacks kernel metadata: {exc}") from exc
    r = replay(recording, params=params, machine=machine, deadline=deadline)
    if deadline is not None:
        world_time = deadline  # Engine.run(until) pins now to the deadline
    else:
        world_time = r.final_time
    marks = r.marks
    iter_times = []
    for it in range(iterations):
        best = None
        for rank in range(ranks):
            dt = marks[("t1", rank, it)] - marks[("t0", rank, it)]
            if best is None or dt > best:
                best = dt
        iter_times.append(best)
    elapsed = sum(iter_times) / len(iter_times)
    return elapsed, world_time


def replay_kernel_grid(
    recording: GraphRecorder,
    overrides: list[dict],
    machine: MachineParams | None = None,
) -> list[float]:
    """Re-price one recorded kernel run over a grid of fabric constants.

    ``overrides`` is a list of ``{field: value}`` dicts, each naming only
    :data:`REPLAY_SAFE_FIELDS` of ``NetworkParams``; point ``i``'s replay
    runs under ``recording.params.replace(**overrides[i])``.  Returns the
    per-point kernel times (same contract as :func:`replay_kernel`).

    This is the calibration sweep ROADMAP item 2 asked for: the expensive
    structural work — recording the run, folding the static graph — is paid
    once, and every grid point costs only the fabric mini-simulation of the
    recorded flows (zero full simulator runs).  A non-replay-safe field in
    any override raises :class:`ReplayInvalid` before any point runs, so a
    caller cannot silently sweep a constant the graph cannot re-price.
    """
    for ov in overrides:
        bad = set(ov) - REPLAY_SAFE_FIELDS
        if bad:
            raise ReplayInvalid(
                f"grid override names non-replay-safe field(s) "
                f"{sorted(bad)}; only {sorted(REPLAY_SAFE_FIELDS)} can be "
                f"re-priced on a recorded graph"
            )
    base = recording.params
    out: list[float] = []
    for ov in overrides:
        elapsed, _world = replay_kernel(
            recording, params=base.replace(**ov), machine=machine,
        )
        out.append(elapsed)
    return out


def dump_recording(recording: GraphRecorder, path) -> None:
    """Write the recorded-graph artifact (CI uploads this for inspection)."""
    with open(path, "w") as fh:
        json.dump(recording.to_jsonable(), fh, indent=1, default=repr)
        fh.write("\n")


def load_recording(source) -> GraphRecorder:
    """Rebuild a replayable :class:`GraphRecorder` from a dumped artifact.

    ``source`` is a path (anything :func:`open` accepts) or an
    already-parsed dict from :meth:`GraphRecorder.to_jsonable`.  The
    reconstruction is exact: node operands regain their tuple form
    (``K_MAX`` predecessor sets), mark keys are parsed back from their
    ``repr`` (they are tuples of strings and ints), and floats round-trip
    bit-for-bit through JSON's ``repr``-based encoding — so a replay of a
    loaded recording produces the same times as a replay of the original.

    This is what makes replay reuse *cross-process*: a tuning service can
    persist each scored candidate's graph next to the tuning db
    (:class:`repro.tune.graphstore.GraphStore`) and a fresh process scores
    warm-started shortlists through :func:`replay` instead of full
    simulation.  Schema 1 artifacts (no machine constants) load with
    ``machine=None``; anything else raises :class:`ReplayInvalid`.
    """
    import ast

    from repro.netmodel.topology import Cluster

    if isinstance(source, dict):
        doc = source
    else:
        with open(source) as fh:
            doc = json.load(fh)
    schema = doc.get("schema")
    if schema not in (1, DUMP_SCHEMA):
        raise ReplayInvalid(
            f"recording artifact has schema {schema!r}, expected 1 or "
            f"{DUMP_SCHEMA}; re-dump it"
        )
    params = NetworkParams(**doc["params"])
    machine_doc = doc.get("machine")
    machine = MachineParams(**machine_doc) if machine_doc else None
    placement = doc.get("placement")
    cluster = Cluster(placement) if placement else None
    rec = GraphRecorder(cluster=cluster, params=params, machine=machine)
    kinds = [int(k) for k in doc["kinds"]]
    rec.kinds = kinds
    rec.a = [tuple(x) if isinstance(x, list) else x for x in doc["a"]]
    rec.b = list(doc["b"])
    rec.flows = [tuple(f) for f in doc["flows"]]
    rec.guards = [tuple(g) for g in doc["guards"]]
    rec.marks = {ast.literal_eval(k): v for k, v in doc["marks"].items()}
    rec.meta = dict(doc.get("meta", {}))
    if not doc.get("valid", True):
        rec.invalidate(doc.get("invalid_reason") or "marked invalid on dump")
    # The hash-consing table is a recording-time accelerator only; a loaded
    # recording is sealed, so it stays empty.
    return rec


def _main(argv) -> int:  # pragma: no cover - exercised by the CI replay step
    """``python -m repro.sim.replay --dump-ssc OUT.json`` records the quick
    table1-shaped SymmSquareCube workload and writes its graph artifact."""
    if len(argv) == 2 and argv[0] == "--dump-ssc":
        from repro.kernels.symmsquarecube import run_ssc

        res = run_ssc(2, 64, "optimized", n_dup=2, ppn=1, iterations=1,
                      record=True)
        rec = res.recording
        assert rec is not None and rec.valid, rec and rec.invalid_reason
        # Sanity: the artifact must replay to the recorded timeline.
        elapsed, _world = replay_kernel(rec)
        assert elapsed == res.elapsed, (elapsed, res.elapsed)
        dump_recording(rec, argv[1])
        print(f"wrote {argv[1]}: {len(rec.kinds)} nodes, "
              f"{len(rec.flows)} flows, elapsed={elapsed:.6g}s")
        return 0
    print("usage: python -m repro.sim.replay --dump-ssc OUT.json")
    return 2


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(_main(sys.argv[1:]))
