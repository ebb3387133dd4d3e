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
  stores consecutive-arrival order guards and :func:`replay` verifies each
  one under the new constants the moment both of its ends are known,
  refusing when a perturbation would reorder a queue.

Storage
-------
A recording is three append-only tables of typed columns
(:class:`Columns`: one ``array`` per column) — nodes, flows, guards — plus
the marks and the run's constants.  A graph of any size is therefore a
fixed handful of Python objects: nothing per node for the cyclic GC to
walk, 17 bytes per node (28 per flow, 8 per guard), and a JSON artifact
that is a few long arrays.
``K_MAX`` is *binary* so that every node fits the same four columns and
``join2`` is one dict probe on a packed-int key; a wide join is a chain of
binary nodes.

See ``docs/perf.md`` for the benchmark (``perf_sim_core`` section
``replay``) and ``docs/tuning.md`` for the tuner integration.
"""

from __future__ import annotations

import json
from array import array
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

#: Serialized-recording schema.  v3 stores the graph as typed columns
#: (binary max nodes); v1/v2 artifacts held per-node operand lists and are
#: refused — a recording is cheap to make again.
DUMP_SCHEMA = 3


class ReplayInvalid(SimulationError):
    """The recorded graph cannot reproduce the requested run exactly."""


class Columns:
    """An append-only table stored as parallel typed columns.

    One :class:`array.array` per named column, so a table of any length is
    the same few Python objects.  Rows are appended column by column
    (``t.lo.append(..); t.hi.append(..)``); ``len(t)`` is the row count.
    """

    def __init__(self, **typecodes: str):
        for name, typecode in typecodes.items():
            setattr(self, name, array(typecode))

    def __len__(self) -> int:
        return len(next(iter(vars(self).values())))

    def to_jsonable(self) -> dict:
        return {name: col.tolist() for name, col in vars(self).items()}

    def fill(self, doc: dict) -> None:
        """Load every column from :meth:`to_jsonable` output."""
        try:
            for name, col in vars(self).items():
                col.fromlist(doc[name])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ReplayInvalid(f"malformed recording column: {exc!r}") from exc
        if len({len(col) for col in vars(self).values()}) != 1:
            raise ReplayInvalid(
                f"torn recording: columns {sorted(vars(self))} differ in length"
            )


class GraphRecorder:
    """Grows the max-plus event graph during a recorded simulation run.

    Node ``i`` is row ``i`` of :attr:`nodes`:

    =========  ===========  ======  ===========  ===========================
    kind       a            x       b            value
    =========  ===========  ======  ===========  ===========================
    K_CONST    —            time    —            ``x``
    K_SHIFT    pred node    delta   —            ``value(a) + x``
    K_MAX      lower pred   —       higher pred  ``max(value(a), value(b))``
    K_FLOW     flow index   —       —            completion of flow row ``a``
    =========  ===========  ======  ===========  ===========================

    :attr:`flows` rows are ``(src, dst, nbytes, extra, post)`` — endpoints,
    size, protocol latency and the node at which the transfer is posted;
    :attr:`guards` rows are FIFO order guards ``value(lo) <= value(hi)``.

    Nodes are hash-consed (``shift(x, 0.0)`` is ``x``, ``join2(x, x)`` is
    ``x``, ``join2(max(x, y), x)`` is ``max(x, y)``), so the graph stays
    proportional to the number of *distinct* causal facts, not to how often
    they are cited.  The hash-cons tables only serve the run being
    recorded; :meth:`seal` drops them.
    """

    def __init__(self, cluster=None, params: NetworkParams | None = None,
                 machine: MachineParams | None = None):
        self.nodes = Columns(kind="b", a="i", x="d", b="i")
        self.flows = Columns(src="i", dst="i", nbytes="d", extra="d", post="i")
        self.guards = Columns(lo="i", hi="i")
        self._const_cons: dict[float, int] = {}
        self._shift_cons: dict[float, dict[int, int]] = {}  # delta -> pred ->
        self._max_cons: dict[int, int] = {}                 # a << 32 | b ->
        #: user-visible labels -> node (kernel timestamps, proc completions).
        self.marks: dict = {}
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

    @property
    def kinds(self) -> array:
        """The node-kind column (``len(rec.kinds)`` is the node count)."""
        return self.nodes.kind

    # -- node constructors --------------------------------------------------

    def _node(self, kind: int, a: int, x: float, b: int) -> int:
        nodes = self.nodes
        idx = len(nodes.kind)
        nodes.kind.append(kind)
        nodes.a.append(a)
        nodes.x.append(x)
        nodes.b.append(b)
        return idx

    def const(self, t: float) -> int:
        idx = self._const_cons.get(t)
        if idx is None:
            self._const_cons[t] = idx = self._node(K_CONST, -1, t, -1)
        return idx

    def shift(self, pred: int, delta: float) -> int:
        if delta == 0.0:
            return pred  # x + 0.0 == x for the non-negative times used here
        by_pred = self._shift_cons.get(delta)
        if by_pred is None:
            self._shift_cons[delta] = by_pred = {}
        idx = by_pred.get(pred)
        if idx is None:
            by_pred[pred] = idx = self._node(K_SHIFT, pred, delta, -1)
        return idx

    def join2(self, x: int | None, y: int | None) -> int | None:
        """max(x, y) as a node; ``None`` means "no constraint"."""
        if x is None or x == y:
            return y
        if y is None:
            return x
        if x > y:
            x, y = y, x
        key = x << 32 | y
        idx = self._max_cons.get(key)
        if idx is None:
            nodes = self.nodes
            # Operands precede their node, so only y can already contain x:
            # max(max(x, z), x) is the existing node, and a chain of joins
            # against the same operand does not grow.
            if nodes.kind[y] == K_MAX and (nodes.a[y] == x or nodes.b[y] == x):
                idx = y
            else:
                idx = self._node(K_MAX, x, 0.0, y)
            self._max_cons[key] = idx
        return idx

    def flow(self, src_rank: int, dst_rank: int, nbytes: float,
             extra_latency: float, post_node: int) -> int:
        flows = self.flows
        fidx = len(flows.src)
        flows.src.append(src_rank)
        flows.dst.append(dst_rank)
        flows.nbytes.append(nbytes)
        flows.extra.append(extra_latency)
        flows.post.append(post_node)
        return self._node(K_FLOW, fidx, 0.0, -1)

    def mark(self, key, node: int) -> None:
        self.marks[key] = node

    def guard(self, lo: int, hi: int) -> None:
        if lo != hi:
            self.guards.lo.append(lo)
            self.guards.hi.append(hi)

    def invalidate(self, reason: str) -> None:
        if self.invalid_reason is None:
            self.invalid_reason = reason

    def seal(self) -> None:
        """The run is over: drop the hash-cons tables.

        They are recording-time accelerators only (about as large as the
        graph itself); everything that consumes a recording — replay,
        serialization, the tuner's graph cache — seals it first.
        """
        self._const_cons.clear()
        self._shift_cons.clear()
        self._max_cons.clear()

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
        self.seal()
        placement = None
        if self.cluster is not None:
            placement = [self.cluster.node_of(r)
                         for r in range(self.cluster.num_ranks)]
        return {
            "schema": DUMP_SCHEMA,
            "valid": self.valid,
            "invalid_reason": self.invalid_reason,
            "nodes": self.nodes.to_jsonable(),
            "flows": self.flows.to_jsonable(),
            "guards": self.guards.to_jsonable(),
            "marks": {repr(k): v for k, v in sorted(
                self.marks.items(), key=lambda kv: repr(kv[0]))},
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
    n_nodes: int = 0
    n_flows: int = 0
    _values: list = field(default_factory=list, repr=False)
    _flow_node: list = field(default_factory=list, repr=False)

    @property
    def flow_times(self) -> list:
        """Completion time per recorded flow (built on request)."""
        values = self._values
        return [values[node] for node in self._flow_node]


_NEG_INF = float("-inf")


def _adjacency(keys: list[int], items: list[int], n: int):
    """Flat ``key -> items`` adjacency for the replay loop.

    Returns ``(at, out)``: ``at[k]`` is the offset in ``out`` of ``k``'s
    items (0 when it has none) and each group ends with ``-1`` — two flat
    int lists however many keys there are.
    """
    at = [0] * n
    out = [-1]
    last = -1
    for j in sorted(range(len(keys)), key=keys.__getitem__):
        k = keys[j]
        if k != last:
            if last >= 0:
                out.append(-1)
            at[k] = len(out)
            last = k
        out.append(items[j])
    out.append(-1)
    return at, out


def _fold_static(rec: GraphRecorder):
    """One topological pass over the graph, cached on the recording.

    Everything here is parameter-independent: which nodes are static, their
    folded values (consts and deltas are recorded, not re-priced), the
    dependents of flow-blocked nodes, which flows each post node releases
    and which guards each node completes.  Replays copy the two mutable
    lists and run only the dynamic propagation.  The plan is flat lists of
    numbers (see :func:`_adjacency`): like the recording it hangs off, it
    holds no per-node container.
    """
    if rec._plan is not None:
        return rec._plan
    rec.seal()
    nodes = rec.nodes
    kinds, A, X, B = (col.tolist() for col in
                      (nodes.kind, nodes.a, nodes.x, nodes.b))
    n = len(kinds)
    values: list = [None] * n
    nun = [0] * n                  # unresolved-predecessor counts
    shift: list = [None] * n       # delta of a dynamic K_SHIFT, else None
    flow_node = [0] * len(rec.flows)   # flow index -> K_FLOW node
    dep_src: list[int] = []        # dynamic edges pred -> dependent
    dep_dst: list[int] = []

    # The pass folds every node whose predecessors are all static
    # (predecessors always precede their node in creation order); nodes
    # blocked behind a flow get an unresolved-predecessor count instead, and
    # a dynamic max starts from its static operand (or -inf).
    for i, k in enumerate(kinds):
        if k == K_MAX:
            p, q = A[i], B[i]
            if nun[p]:
                dep_src.append(p)
                dep_dst.append(i)
                if nun[q]:
                    dep_src.append(q)
                    dep_dst.append(i)
                    nun[i] = 2
                    values[i] = _NEG_INF
                else:
                    nun[i] = 1
                    values[i] = values[q]
            elif nun[q]:
                dep_src.append(q)
                dep_dst.append(i)
                nun[i] = 1
                values[i] = values[p]
            else:
                pv, qv = values[p], values[q]
                values[i] = qv if qv > pv else pv
        elif k == K_SHIFT:
            p = A[i]
            if nun[p]:
                dep_src.append(p)
                dep_dst.append(i)
                nun[i] = 1
                shift[i] = X[i]
            else:
                values[i] = values[p] + X[i]
        elif k == K_FLOW:
            nun[i] = 1
            flow_node[A[i]] = i
        else:
            values[i] = X[i]

    # What resolving a dynamic node triggers besides its dependents, packed
    # as ``target << 2 | code``: 0 posts flow ``target``; 1 / 2 check an
    # order guard against node ``target``, which must not come earlier /
    # later.  A guard is attached to its dynamic end(s) only; the replay
    # checks it when the second end resolves.
    static_posts: list[int] = []
    act_node: list[int] = []
    act_code: list[int] = []
    for fi, post in enumerate(rec.flows.post):
        if nun[post]:
            act_node.append(post)
            act_code.append(fi << 2)
        else:
            static_posts.append(fi)
    for lo, hi in zip(rec.guards.lo, rec.guards.hi):
        if nun[lo]:
            act_node.append(lo)
            act_code.append(hi << 2 | 1)
        if nun[hi]:
            act_node.append(hi)
            act_code.append(lo << 2 | 2)
        elif not nun[lo] and values[lo] > values[hi]:
            raise ReplayInvalid(
                f"order guard fails on static times ({values[lo]} > "
                f"{values[hi]}); the recording is inconsistent"
            )
    done_nodes = [node for key, node in rec.marks.items()
                  if isinstance(key, tuple) and key and key[0] == "proc_done"]
    rec._plan = (values, nun, shift, *_adjacency(dep_src, dep_dst, n),
                 *_adjacency(act_node, act_code, n), static_posts, flow_node,
                 done_nodes)
    return rec._plan


def replay(recording: GraphRecorder, params: NetworkParams | None = None,
           machine: MachineParams | None = None,
           deadline: float | None = None) -> ReplayResult:
    """Solve the recorded timeline under ``params``; exact by construction.

    Static (max-plus) nodes are folded in one (cached) topological pass;
    flow nodes are resolved by a fresh
    :class:`~repro.netmodel.fabric.Fabric` fed the recorded transfers at
    their graph-resolved post times.  Raises :class:`ReplayInvalid` when
    the recording's envelope is violated — for a reordered FIFO queue, at
    the first order guard whose two ends have resolved the wrong way round,
    not after the whole mini-simulation.

    With a ``deadline`` the replay mirrors the live simulator's bounded
    ``World.run(until=...)``: the mini-simulation stops at the deadline,
    and if a rank program (a ``proc_done`` mark) is unfinished by then it
    raises :class:`~repro.sim.engine.DeadlineExceeded` instead of solving
    the rest — a candidate that cannot beat the incumbent costs only the
    replay work up to the proof.  That verdict is issued only by a timeline
    whose order guards hold up to the deadline: the replayed times equal
    the live ones until the first queue reorder, so a reorder before the
    deadline raises :class:`ReplayInvalid` and never a false prune.
    """
    from repro.netmodel.fabric import Fabric

    recording.check_compatible(params, machine)
    rec = recording
    cluster = rec.cluster
    if cluster is None:
        raise ReplayInvalid("recording carries no cluster topology")
    (values0, nun0, shift, dep_at, deps, act_at, acts, static_posts,
     flow_node, done_nodes) = _fold_static(rec)
    values = values0.copy()
    nun = nun0.copy()
    flows = rec.flows
    src, dst, nbytes, extra = flows.src, flows.dst, flows.nbytes, flows.extra

    eng = Engine()
    fab = Fabric(eng, cluster, params or rec.params)
    schedule_at = eng.schedule_at
    transfer_cb = fab.transfer_cb

    def post_flow(fi: int, when: float) -> None:
        if when < eng.now:
            raise ReplayInvalid(
                f"non-causal flow post: t={when} < now={eng.now}"
            )
        schedule_at(when, transfer_cb, src[fi], dst[fi], nbytes[fi],
                    extra[fi], flow_done, fi)

    def reordered(lo: int, hi: int) -> ReplayInvalid:
        return ReplayInvalid(
            "perturbation reorders a FIFO compute queue "
            f"({values[lo]} > {values[hi]}); falling back to simulation"
        )

    # Propagation runs once per flow completion — the hot loop of a replay.
    # Everything it touches is bound as a default argument: locals, not
    # closure cells.  Iterative, because recursion could exceed the stack on
    # deep shift chains.  A node's value is final when it is pushed; its
    # unresolved count drops to zero when it is popped.
    def flow_done(fi: int, values=values, nun=nun, shift=shift,
                  dep_at=dep_at, deps=deps, act_at=act_at, acts=acts,
                  flow_node=flow_node) -> None:
        i = flow_node[fi]
        values[i] = eng.now
        stack = [i]
        while stack:
            i = stack.pop()
            v = values[i]
            nun[i] = 0
            j = act_at[i]
            if j:
                a = acts[j]
                while a >= 0:
                    t = a >> 2
                    code = a & 3
                    if code == 0:
                        post_flow(t, v)
                    elif nun[t] == 0:
                        # Second end of an order guard: refuse here, not
                        # after the rest of the mini-simulation.
                        if code == 1:
                            if v > values[t]:
                                raise reordered(i, t)
                        elif values[t] > v:
                            raise reordered(t, i)
                    j += 1
                    a = acts[j]
            j = dep_at[i]
            if j:
                d = deps[j]
                while d >= 0:
                    delta = shift[d]
                    if delta is not None:
                        values[d] = v + delta
                        stack.append(d)
                    else:  # K_MAX: fold into the running maximum
                        if v > values[d]:
                            values[d] = v
                        left = nun[d] - 1
                        nun[d] = left
                        if left == 0:
                            stack.append(d)
                    j += 1
                    d = deps[j]

    # Kick off every flow whose post time resolved statically; the rest
    # cascade from flow completions inside the mini-simulation.
    post = flows.post
    for fi in static_posts:
        post_flow(fi, values[post[fi]])
    eng.run(until=deadline)
    if deadline is not None:
        late = [d for d in done_nodes if nun[d] or values[d] > deadline]
        if late:
            # Replayed and live times agree up to the first queue reorder.
            # Guards with both ends resolved were checked on the way; one
            # whose later arrival is in but whose earlier one is still
            # missing at the deadline is a reorder before the deadline.
            for lo, hi in zip(rec.guards.lo, rec.guards.hi):
                if nun[lo] and not nun[hi] and values[hi] <= deadline:
                    raise ReplayInvalid(
                        "perturbation reorders a FIFO compute queue before "
                        "the deadline; falling back to simulation"
                    )
            raise DeadlineExceeded(
                f"replayed run exceeded deadline {deadline:.6g}s: "
                f"{len(late)} rank program(s) unfinished"
            )
        eng.run()

    n = len(values)
    unresolved = n - nun.count(0)
    if unresolved:
        raise ReplayInvalid(
            f"{unresolved} graph node(s) never resolved (incomplete recording)"
        )
    return ReplayResult(
        final_time=max(values, default=0.0),
        marks={k: values[node] for k, node in rec.marks.items()},
        n_nodes=n,
        n_flows=len(flows),
        _values=values,
        _flow_node=flow_node,
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
    ``deadline`` — stopping the replay at the deadline instead of solving
    the whole graph (see :func:`replay`).
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
        # dumps, not dump: only the one-shot form uses the C encoder.
        fh.write(json.dumps(recording.to_jsonable(), default=repr))
        fh.write("\n")


def load_recording(source) -> GraphRecorder:
    """Rebuild a replayable :class:`GraphRecorder` from a dumped artifact.

    ``source`` is a path (anything :func:`open` accepts) or an
    already-parsed dict from :meth:`GraphRecorder.to_jsonable`.  The
    reconstruction is exact: every column regains its typed form, mark
    keys are parsed back from their ``repr`` (they are tuples of strings
    and ints), and floats round-trip bit-for-bit through JSON's
    ``repr``-based encoding — so a replay of a loaded recording produces
    the same times as a replay of the original.

    This is what makes replay reuse *cross-process*: a tuning service can
    persist each scored candidate's graph next to the tuning db
    (:class:`repro.tune.graphstore.GraphStore`) and a fresh process scores
    warm-started shortlists through :func:`replay` instead of full
    simulation.  Artifacts of another schema (the per-node lists of v1/v2)
    and torn or malformed columns raise :class:`ReplayInvalid`.
    """
    import ast

    from repro.netmodel.topology import Cluster

    if isinstance(source, dict):
        doc = source
    else:
        with open(source) as fh:
            doc = json.load(fh)
    schema = doc.get("schema")
    if schema != DUMP_SCHEMA:
        raise ReplayInvalid(
            f"recording artifact has schema {schema!r}, expected "
            f"{DUMP_SCHEMA}; re-record it"
        )
    params = NetworkParams(**doc["params"])
    machine_doc = doc.get("machine")
    machine = MachineParams(**machine_doc) if machine_doc else None
    placement = doc.get("placement")
    cluster = Cluster(placement) if placement else None
    rec = GraphRecorder(cluster=cluster, params=params, machine=machine)
    for table in ("nodes", "flows", "guards"):
        getattr(rec, table).fill(doc.get(table))
    rec.marks = {ast.literal_eval(k): v for k, v in doc["marks"].items()}
    rec.meta = dict(doc.get("meta", {}))
    if not doc.get("valid", True):
        rec.invalidate(doc.get("invalid_reason") or "marked invalid on dump")
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
