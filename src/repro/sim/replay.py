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
  not max-plus — a task's start depends on which submissions reached its
  queue first — so a submission is a *dynamic* node like a flow: the
  mini-simulation delivers each task to its queue at the instant its
  arrival resolves and prices it exactly as ``submit_cb`` does, in
  whatever order the new constants produce.  The one order the graph
  cannot always know is that of two submissions reaching the *same* queue
  at the *same* instant: live, it falls out of engine sequence numbers.
  :func:`replay` serves such a tie when the graph does order it —
  deliveries of flows posted at different instants, timers armed at
  different instants, actions of one dispatch in recorded order, anything
  statically timed (:func:`_ordered` has the rules) — and refuses otherwise.  At the
  recording's own constants ties take recorded order, so an identity
  replay never refuses.

Storage
-------
A recording is two append-only tables of typed columns
(:class:`Columns`: one ``array`` per column) — nodes and flows — plus
the marks and the run's constants.  A graph of any size is therefore a
fixed handful of Python objects: nothing per node for the cyclic GC to
walk, 17 bytes per node (32 per flow), and a JSON artifact that is a few
long arrays.
``K_MAX`` is *binary* so that every node fits the same four columns and
``join2`` is one dict probe on a packed-int key; a wide join is a chain of
binary nodes.

See ``docs/perf.md`` for the benchmark (``perf_sim_core`` section
``replay``) and ``docs/tuning.md`` for the tuner integration.
"""

from __future__ import annotations

import json
from array import array
from heapq import heappop, heappush
from dataclasses import dataclass, fields, field
from typing import NamedTuple

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
K_CONST, K_SHIFT, K_MAX, K_FLOW, K_TASK = 0, 1, 2, 3, 4

#: Serialized-recording schema.  v4 stores FIFO submissions as ``K_TASK``
#: nodes and the lane of every flow; v3 froze each queue's recorded order
#: into max/shift chains, v1/v2 held per-node operand lists.  Older
#: artifacts are refused — a recording is cheap to make again.
DUMP_SCHEMA = 4


class ReplayInvalid(SimulationError):
    """The recorded graph cannot reproduce the requested run exactly."""


class Columns:
    """An append-only table stored as parallel typed columns.

    One :class:`array.array` per named column, so a table of any length is
    the same few Python objects.  Rows are appended column by column
    (``t.src.append(..); t.dst.append(..)``); ``len(t)`` is the row count.
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
    K_TASK     arrival      length  queue        finish of a FIFO submission
    =========  ===========  ======  ===========  ===========================

    :attr:`flows` rows are ``(src, dst, nbytes, extra, post, ch)`` —
    endpoints, size, protocol latency, the node at which the transfer is
    posted and its virtual lane.  A ``K_TASK`` node is ``x`` seconds of work
    reaching FIFO queue ``b`` at ``value(a)``; its value depends on what
    else the queue holds by then, so — like a flow's — it is resolved by
    the replay's mini-simulation, not by the graph.  Node order is
    submission order within a queue.

    Nodes are hash-consed (``shift(x, 0.0)`` is ``x``, ``join2(x, x)`` is
    ``x``, ``join2(max(x, y), x)`` is ``max(x, y)``), so the graph stays
    proportional to the number of *distinct* causal facts, not to how often
    they are cited.  The hash-cons tables only serve the run being
    recorded; :meth:`seal` drops them.
    """

    def __init__(self, cluster=None, params: NetworkParams | None = None,
                 machine: MachineParams | None = None):
        self.nodes = Columns(kind="b", a="i", x="d", b="i")
        self.flows = Columns(src="i", dst="i", nbytes="d", extra="d", post="i",
                             ch="b")
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
        #: one recording share it until :meth:`drop_fold`.
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
             extra_latency: float, post_node: int, channel: int = 0) -> int:
        flows = self.flows
        fidx = len(flows.src)
        flows.src.append(src_rank)
        flows.dst.append(dst_rank)
        flows.nbytes.append(nbytes)
        flows.extra.append(extra_latency)
        flows.post.append(post_node)
        flows.ch.append(channel)
        return self._node(K_FLOW, fidx, 0.0, -1)

    def task(self, queue: int, arrival: int, duration: float) -> int:
        """``duration`` seconds of work reaching FIFO ``queue`` at ``arrival``."""
        return self._node(K_TASK, arrival, duration, queue)

    def mark(self, key, node: int) -> None:
        self.marks[key] = node

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

    def drop_fold(self) -> None:
        """Forget the cached structural fold (the next replay rebuilds it).

        The fold is Python lists several times the size of the columns it is
        built from; a holder that parks recordings between batches of
        replays (the tuner's graph cache) drops it after each batch.
        """
        self._plan = None

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


class _Plan(NamedTuple):
    """The structural fold of a recording (see :func:`_fold_static`)."""

    values: list        #: per node: folded static value, else None / -inf
    nun: list           #: per node: unresolved-predecessor count
    shift: list         #: per node: delta (K_SHIFT) / length (K_TASK) / None
    dep_at: list        #: dependents of dynamic nodes (:func:`_adjacency`)
    deps: list
    act_at: list        #: flows and tasks a node's instant releases
    acts: list
    static_acts: list   #: ``(instant, offset in acts)`` of the static ones
    flow_node: list     #: flow index -> K_FLOW node
    prev_task: dict     #: K_TASK node -> the one before it in its queue
    n_queues: int
    done_nodes: list    #: the ``proc_done`` marks


def _fold_static(rec: GraphRecorder) -> _Plan:
    """One topological pass over the graph, cached on the recording.

    Everything here is parameter-independent: which nodes are static, their
    folded values (consts and deltas are recorded, not re-priced), the
    dependents of flow- and task-blocked nodes, and which flows and tasks
    each node's instant releases.  Replays copy the two mutable lists and
    run only the dynamic propagation.  The plan is flat lists of numbers
    (see :func:`_adjacency`) — no per-node container — but it is several
    times the recording's own size: :meth:`GraphRecorder.drop_fold` returns
    that memory once a batch of replays is over.
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
    shift: list = [None] * n       # delta of a dynamic K_SHIFT, length of a
    #                                K_TASK, else None
    flow_node = [0] * len(rec.flows)   # flow index -> K_FLOW node
    dep_src: list[int] = []        # dynamic edges pred -> dependent
    dep_dst: list[int] = []
    tasks: list[int] = []
    prev_task: dict[int, int] = {}  # K_TASK node -> the one before it in its
    tail: dict[int, int] = {}       # queue (recorded submission order)

    # The pass folds every node whose predecessors are all static
    # (predecessors always precede their node in creation order); nodes
    # blocked behind a flow or a task get an unresolved-predecessor count
    # instead, and a dynamic max starts from its static operand (or -inf).
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
        elif k == K_TASK:
            nun[i] = 1
            shift[i] = X[i]
            tasks.append(i)
            q = B[i]
            if q in tail:
                prev_task[i] = tail[q]
            tail[q] = i
        else:
            values[i] = X[i]

    # What a dynamic node's instant releases besides its dependents, packed
    # as ``target << 1 | is_task``: flow row ``target`` is posted, or task
    # node ``target`` reaches its queue.  A flow or task released by a
    # static node is an action list of its own at the end of ``acts``;
    # ``static_acts`` pairs its instant with its offset there, in recorded
    # order.
    static: list = []
    act_node: list[int] = []
    act_code: list[int] = []
    sources = [(fi << 1, post) for fi, post in enumerate(rec.flows.post)]
    sources += [(i << 1 | 1, A[i]) for i in tasks]
    for code, at in sources:
        if nun[at]:
            act_node.append(at)
            act_code.append(code)
        else:
            static.append((values[at], code))
    act_at, acts = _adjacency(act_node, act_code, n)
    static_acts = []
    for when, code in static:
        static_acts.append((when, len(acts)))
        acts += (code, -1)
    done_nodes = [node for key, node in rec.marks.items()
                  if isinstance(key, tuple) and key and key[0] == "proc_done"]
    rec._plan = _Plan(values, nun, shift, *_adjacency(dep_src, dep_dst, n),
                      act_at, acts, static_acts, flow_node, prev_task,
                      max(tail, default=-1) + 1, done_nodes)
    return rec._plan


class _OrderQuestion(Exception):
    """Two tasks met on one queue at one instant: their order matters."""


def replay(recording: GraphRecorder, params: NetworkParams | None = None,
           machine: MachineParams | None = None,
           deadline: float | None = None) -> ReplayResult:
    """Solve the recorded timeline under ``params``; exact by construction.

    Static (max-plus) nodes are folded in one (cached) topological pass;
    the rest resolve inside one mini-simulation.  Flow nodes are resolved
    by a fresh :class:`~repro.netmodel.fabric.Fabric` fed the recorded
    transfers at their graph-resolved post times.  Task nodes are resolved
    by their FIFO queue: each is delivered at the instant its arrival
    resolves and priced with the two float operations of
    :meth:`~repro.mpi.progress.ProgressEngine.submit_cb` (``start =
    max(now, busy_until)``, ``finish = start + duration``), so a queue the
    new constants reorder is simply served in its new order.

    The order in which the mini-simulation dispatches the events of one
    instant changes the timeline only through a FIFO queue that two tasks
    reach at that instant.  The first pass (:func:`_eager`) therefore keeps
    no order at all and is exact as long as no two do; the first such pair
    restarts the timeline under :func:`_ordered`, which dispatches what the
    live run dispatches and knows which same-instant orders are the live
    ones.

    Raises :class:`ReplayInvalid` when the recording's envelope is violated
    — in particular, from inside the mini-simulation, when two tasks reach
    one queue at the same instant in an order the graph cannot know.

    With a ``deadline`` the replay mirrors the live simulator's bounded
    ``World.run(until=...)``: the mini-simulation stops at the deadline,
    and if a rank program (a ``proc_done`` mark) is unfinished by then it
    raises :class:`~repro.sim.engine.DeadlineExceeded` instead of solving
    the rest — a candidate that cannot beat the incumbent costs only the
    replay work up to the proof.  The timeline up to the deadline is the
    live one, so the verdict is too; an ambiguous tie before the deadline
    refuses, it never prunes.
    """
    recording.check_compatible(params, machine)
    if recording.cluster is None:
        raise ReplayInvalid("recording carries no cluster topology")
    params = params or recording.params
    plan = _fold_static(recording)
    try:
        values = _solve(recording, plan, params, deadline, _eager)
    except _OrderQuestion:
        values = _solve(recording, plan, params, deadline, _ordered)
    return ReplayResult(
        final_time=max(values, default=0.0),
        marks={k: values[node] for k, node in recording.marks.items()},
        n_nodes=len(values),
        n_flows=len(recording.flows),
        _values=values,
        _flow_node=plan.flow_node,
    )


def _solve(rec: GraphRecorder, plan: _Plan, params: NetworkParams,
           deadline: float | None, dispatcher) -> list:
    """One mini-simulation of ``rec`` under ``params``: every node's value.

    ``dispatcher`` (:func:`_eager` or :func:`_ordered`) builds the callback
    that serves the mini-simulation's events.
    """
    from repro.netmodel.fabric import Fabric

    values = plan.values.copy()
    nun = plan.nun.copy()
    eng = Engine()
    fire = dispatcher(rec, plan, params, eng, Fabric(eng, rec.cluster, params),
                      values, nun)
    # Kick off every flow and task whose instant resolved statically, in
    # recorded order; the rest cascade from inside the mini-simulation.
    for when, j in plan.static_acts:
        eng.schedule_at(when, fire, j, 2)
    eng.run(until=deadline)
    if deadline is not None:
        late = sum(1 for d in plan.done_nodes
                   if nun[d] or values[d] > deadline)
        if late:
            raise DeadlineExceeded(
                f"replayed run exceeded deadline {deadline:.6g}s: "
                f"{late} rank program(s) unfinished"
            )
        eng.run()
    unresolved = len(values) - nun.count(0)
    if unresolved:
        raise ReplayInvalid(
            f"{unresolved} graph node(s) never resolved (incomplete recording)"
        )
    return values


def _eager(rec: GraphRecorder, plan: _Plan, params: NetworkParams,
           eng: Engine, fab, values: list, nun: list):
    """The dispatcher that keeps no same-instant order.

    A node's value is propagated as soon as it is known — a shift or a task
    finish lying ahead included — so the only events besides the fabric's
    are the instants of nodes that release a flow or a task.  Two tasks
    reaching one queue at one instant raise :class:`_OrderQuestion` — except
    at the recording's own constants, where the recorded submission order
    *is* the live order (:meth:`~GraphRecorder.check_compatible` pinned every
    other field): a task whose recorded predecessor is still to come waits
    for it.
    """
    (_values, _nun, shift, dep_at, deps, act_at, acts, _static,
     flow_node, prev_task, n_queues, _done) = plan
    flows = rec.flows
    src, dst, nbytes, extra, lane = (flows.src, flows.dst, flows.nbytes,
                                     flows.extra, flows.ch)
    queue = rec.nodes.b
    schedule_at = eng.schedule_at
    transfer_cb = fab.transfer_cb
    busy = [0.0] * n_queues     # ProgressEngine.busy_until
    tie_t = [-1.0] * n_queues   # the queue's latest arrival
    exact = params == rec.params
    parked: dict = {}

    # The hot loop of a replay: everything it touches is bound as a default
    # argument (locals, not closure cells).  Iterative, because recursion
    # could exceed the stack on deep shift chains.  A node's value is final
    # when it is pushed; its unresolved count drops to zero when popped.
    def fire(i, kind: int = 0, values=values, nun=nun, shift=shift,
             dep_at=dep_at, deps=deps, act_at=act_at, acts=acts) -> None:
        """Flow row ``i`` is delivered (``kind`` 0); node ``i``, resolved
        ahead of this instant, releases its flows and tasks (1); the
        statically timed action list at ``acts[i]`` runs (2)."""
        v = now = eng.now
        if kind == 0:
            i = flow_node[i]
            values[i] = now
        j = act_at[i] if kind != 2 else i
        resolved = not kind  # else: its dependents went with its value
        stack = []
        while True:
            if j:
                if v > now:  # its flows and tasks wait for their instant
                    schedule_at(v, fire, i, 1)
                else:
                    a = acts[j]
                    while a >= 0:
                        t = a >> 1
                        if a & 1:  # task node t reaches its queue
                            q = queue[t]
                            if exact:
                                p = prev_task.get(t)
                                if p is not None and values[p] is None:
                                    parked[p] = t
                                    t = None
                            elif tie_t[q] == now:
                                raise _OrderQuestion
                            else:
                                tie_t[q] = now
                            if t is not None:
                                start = busy[q]
                                while t is not None:
                                    if now > start:
                                        start = now
                                    values[t] = start = start + shift[t]
                                    stack.append(t)
                                    t = parked.pop(t, None)
                                busy[q] = start
                        else:  # flow row t is posted
                            transfer_cb(src[t], dst[t], nbytes[t], extra[t],
                                        fire, t, channel=lane[t])
                        j += 1
                        a = acts[j]
            if resolved:
                nun[i] = 0
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
            else:
                resolved = True
            if not stack:
                return
            i = stack.pop()
            v = values[i]
            j = act_at[i]

    return fire


def _ordered(rec: GraphRecorder, plan: _Plan, params: NetworkParams,
             eng: Engine, fab, values: list, nun: list):
    """The dispatcher that knows which same-instant orders are the live ones.

    Every dynamic node resolves at its own instant, as in the live run: a
    shift or a task whose value lies ahead is a live timer, armed when its
    base resolves and fired — its dependents with it — by an event of the
    mini-simulation at that value.

    The live order of two actions of one instant (flow posts: it decides
    which of two flows that land together calls back first; task arrivals
    on one queue; the arming of two timers set for one instant) is known
    only when it follows from the graph.  Every dispatch runs under an
    *order group*, and two actions of one instant are ordered for sure —
    the order they take here is the live one — iff their groups are equal:

    * a flow's delivery joins the group of the instant's earlier
      deliveries when the fabric's callback order of it and each of them
      is the live one: they were posted at different instants, or under
      one group;
    * timers fire in the order they were armed, so a timer continues the
      group of the timer before it when that is the same instant and the
      two were armed at different instants, or under one group; a max that
      waits for a statically timed operand fires under a group of its own;
    * the nodes one dispatch resolves are served in recorded (index) order,
      taken to be the order the live dispatch reaches them in; the rest of
      a dispatch that meets a second cause of its instant (a max whose
      operands tie, the other not resolved under this group) or whose
      flows, tasks or timers leave recorded order runs under a fresh group;
    * statically timed actions share group 0 in recorded order, which no
      constant can change.

    Two tasks reaching one queue at one instant under different groups
    raise :class:`ReplayInvalid`.  (At the recording's own constants
    :func:`_eager` asks no question, so this dispatcher never runs.)
    """
    (_values, _nun, shift, dep_at, deps, act_at, acts, _static,
     flow_node, _prev_task, n_queues, _done) = plan
    flows = rec.flows
    src, dst, nbytes, extra, lane = (flows.src, flows.dst, flows.nbytes,
                                     flows.extra, flows.ch)
    pred, queue = rec.nodes.a, rec.nodes.b
    schedule_at = eng.schedule_at
    transfer_cb = fab.transfer_cb

    # FIFO queue state: ProgressEngine.busy_until, and the latest arrival
    # (its instant and order group).
    busy = [0.0] * n_queues
    tie_t = [-1.0] * n_queues
    tie_g = [0] * n_queues

    post_t = [0.0] * len(flows)     # flow row -> instant and group of its
    post_g = [0] * len(flows)       # post
    arm_g = [-1] * len(values)  # timer node -> group that armed it (-1: none)
    stamp = [-1] * len(values)  # K_MAX node -> group that resolved its first
    #                             operand (matters when the second one ties)
    next_g = 1                  # the next unused group id
    fab_t, fab_g = -1.0, 0      # the latest delivery's instant and group;
    fab_posts: dict = {}        # post instant -> post group of that group's
    #                             deliveries
    # The latest timer: its instant, when and under which group it was
    # armed, and its group.
    rel_t, rel_at, rel_ag, rel_g = -1.0, 0.0, 0, 0

    # One call per event of the mini-simulation — the hot loop of a replay.
    # Everything it touches is bound as a default argument: locals, not
    # closure cells.  The nodes an event resolves are served from a heap, in
    # recorded (index) order: the order the live dispatch created them in.
    def fire(i, kind: int = 0, values=values, nun=nun, shift=shift,
             dep_at=dep_at, deps=deps, act_at=act_at, acts=acts,
             post_t=post_t, post_g=post_g, arm_g=arm_g, stamp=stamp) -> None:
        """Dispatch one event of the mini-simulation: flow row ``i`` is
        delivered (``kind`` 0); timer node ``i`` fires (1); the statically
        timed action list at ``acts[i]`` runs (2)."""
        nonlocal next_g, fab_t, fab_g, rel_t, rel_at, rel_ag, rel_g
        now = eng.now
        if kind == 0:
            if now != fab_t:
                fab_t = now
                fab_posts.clear()
                fab_g = next_g
                next_g += 1
            g = post_g[i]
            if fab_posts.setdefault(post_t[i], g) != g:
                fab_posts.clear()
                fab_posts[post_t[i]] = g
                fab_g = next_g
                next_g += 1
            group = fab_g
            i = flow_node[i]
            values[i] = now
            j = act_at[i]
        elif kind == 1:
            g = arm_g[i]
            at = values[pred[i]]
            if g >= 0 and now == rel_t and (at != rel_at or g == rel_ag):
                group = rel_g
            else:
                group = rel_g = next_g
                next_g += 1
            rel_t = now if g >= 0 else -1.0
            rel_at = at
            rel_ag = g
            j = act_at[i]
        else:
            group = 0
            j = i
            i = -1
        last_flow = last_task = last_arm = -1
        ready = []  # resolved nodes, served in recorded (index) order
        while True:
            if j:
                a = acts[j]
                while a >= 0:
                    t = a >> 1
                    if a & 1:  # task node t reaches its queue
                        q = queue[t]
                        if a < last_task:
                            group = next_g
                            next_g += 1
                        last_task = a
                        if tie_t[q] == now and tie_g[q] != group:
                            raise ReplayInvalid(
                                "ambiguous same-instant order in a FIFO "
                                f"compute queue (rank {q}, t={now}); "
                                "falling back to simulation"
                            )
                        tie_t[q] = now
                        tie_g[q] = group
                        start = busy[q]
                        if now > start:
                            start = now
                        values[t] = busy[q] = start = start + shift[t]
                        if start > now:  # its finish is a timer
                            if t < last_arm:
                                group = next_g
                                next_g += 1
                            last_arm = t
                            arm_g[t] = group
                            schedule_at(start, fire, t, 1)
                        else:
                            heappush(ready, t)
                    else:  # flow row t is posted
                        if a < last_flow:
                            group = next_g
                            next_g += 1
                        last_flow = a
                        post_t[t] = now
                        post_g[t] = group
                        transfer_cb(src[t], dst[t], nbytes[t], extra[t],
                                    fire, t, channel=lane[t])
                    j += 1
                    a = acts[j]
            if i >= 0:
                nun[i] = 0
                j = dep_at[i]
                if j:
                    d = deps[j]
                    while d >= 0:
                        delta = shift[d]
                        if delta is not None:  # K_SHIFT: a timer
                            values[d] = v = now + delta
                            if v > now:
                                if d < last_arm:
                                    group = next_g
                                    next_g += 1
                                last_arm = d
                                arm_g[d] = group
                                schedule_at(v, fire, d, 1)
                            else:
                                heappush(ready, d)
                        else:  # K_MAX: fold into the running maximum
                            v = values[d]
                            if now > v:
                                values[d] = v = now
                            elif now == v and stamp[d] != group:
                                group = next_g
                                next_g += 1
                            left = nun[d] - 1
                            nun[d] = left
                            if left:
                                stamp[d] = group
                            elif v > now:  # waits for its static operand
                                schedule_at(v, fire, d, 1)
                            else:
                                heappush(ready, d)
                        j += 1
                        d = deps[j]
            if not ready:
                return
            i = heappop(ready)
            j = act_at[i]

    return fire


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
    simulation.  Artifacts of another schema (the per-node lists of v1/v2,
    the frozen queue chains of v3) and torn or malformed columns raise
    :class:`ReplayInvalid`.
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
    for table in ("nodes", "flows"):
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
