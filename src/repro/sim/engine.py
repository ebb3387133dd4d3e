"""Event loop and one-shot events for the discrete-event simulator.

The :class:`Engine` owns a binary heap of ``[time, seq, fn, args]`` entries.
``seq`` is a monotonically increasing counter so that callbacks scheduled for
the same virtual time fire in FIFO order, which makes every run of a
simulation bit-for-bit deterministic — a property the tests and the paper
reproduction rely on (there is no wall-clock noise in any reported number).

Heap hygiene
------------
Entries are mutable lists so a scheduled callback can be retracted in O(1)
by blanking its ``fn`` slot in place.  :meth:`Engine.call_at` returns a
:class:`Timer` handle whose :meth:`Timer.cancel` does exactly that; layers
that supersede their own completions (most importantly the fluid-flow
fabric, which moves a flow's completion every time its share of a NIC
changes) cancel the stale entry instead of leaving a version-guarded no-op
to rot in the heap.  Cancelled entries are reaped lazily when they surface
at the heap top; when more than half of the heap is dead, the whole heap is
compacted in one O(n) pass.  Neither reaping nor compaction can reorder
live entries: ordering is always by ``(time, seq)`` and ``seq`` is unique,
so list comparison never reaches the (uncomparable) callback slot.

Hot-path scheduling
-------------------
:meth:`Engine.schedule_at` / :meth:`Engine.schedule_after` are the
allocation-lean primitives: they accept positional arguments
(``schedule_at(t, fn, a, b)``) so hot call sites pass bound methods plus
arguments instead of allocating a closure per event, and they return the
raw heap entry (cancel it with :meth:`Engine.cancel`).  :meth:`call_at` /
:meth:`call_after` wrap the same entry in a :class:`Timer` handle — the
friendlier API for code outside the simulator core.

End-of-instant hooks
--------------------
:meth:`Engine.at_instant_end` registers a callback to run after the last
event of the *current virtual instant* and before the clock advances.  The
fabric uses this to coalesce all rate recomputation triggered within one
instant into a single pass without paying a zero-delay heap round-trip per
burst (see ``docs/perf.md``).
"""

from __future__ import annotations

import heapq
import threading
from collections.abc import Callable
from typing import Any

#: Below this heap size compaction is pointless — reaping at the top is
#: cheaper than rebuilding, and tiny heaps cannot amortize the O(n) pass.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised when a simulated process fails or the engine detects misuse."""


class DeadlineExceeded(SimulationError):
    """Raised when a bounded run (``run(until=...)``) left work unfinished.

    The autotuner uses this for early termination: a candidate configuration
    is simulated with the incumbent's finishing time as the deadline, and a
    run that cannot beat it is abandoned instead of simulated to completion.
    """


class Timer:
    """Handle for one scheduled callback; supports :meth:`cancel`.

    A cancelled timer never fires.  Cancellation is O(1): the heap entry is
    marked dead in place and reclaimed lazily by the engine.
    """

    __slots__ = ("engine", "entry")

    def __init__(self, engine: "Engine", entry: list):
        self.engine = engine
        self.entry = entry

    @property
    def when(self) -> float:
        """Virtual time the callback is (or was) scheduled for."""
        return self.entry[0]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (or the timer fired)."""
        return self.entry[2] is None

    def cancel(self) -> None:
        """Retract the callback; safe to call on a fired/cancelled timer."""
        self.engine.cancel(self.entry)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled/fired" if self.entry[2] is None else f"at {self.entry[0]}"
        return f"<Timer {state}>"


class SimEvent:
    """A one-shot event carrying an optional value.

    Callbacks registered before the event fires are invoked (in registration
    order) at the virtual time :meth:`succeed` is called.  Registering a
    callback on an already-fired event invokes it immediately: this is what
    lets a process wait on e.g. a message that already arrived without any
    special-casing.

    Like :meth:`Engine.call_at`, :meth:`add_callback` accepts extra
    positional arguments (``ev.add_callback(fn, a, b)`` fires ``fn(ev, a,
    b)``) so hot registration sites can pass bound methods plus state
    instead of allocating a closure per message.
    """

    __slots__ = ("engine", "name", "_fired", "value", "_callbacks", "fire_time",
                 "_rec_fire")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._fired = False
        self.value: Any = None
        self.fire_time: float | None = None
        self._callbacks: list[tuple[Callable[..., None], tuple]] = []
        self._rec_fire = None  # recording: graph node of the firing instant

    @property
    def fired(self) -> bool:
        """True once :meth:`succeed` has been called."""
        return self._fired

    def succeed(self, value: Any = None) -> None:
        """Fire the event now, delivering ``value`` to all waiters."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self.value = value
        engine = self.engine
        self.fire_time = engine.now
        callbacks, self._callbacks = self._callbacks, []
        rec = engine.recorder
        if rec is None:
            for cb, args in callbacks:
                cb(self, *args)
            return
        # Recording: each waiter resumes no earlier than both the firing
        # instant and its own registration instant, whichever is later under
        # perturbed constants — a max-plus join of the two graph nodes.
        self._rec_fire = ctx = engine._rec_now()
        for cb, args, add_ctx in callbacks:
            engine._rec_ctx = rec.join2(ctx, add_ctx)
            cb(self, *args)
        engine._rec_ctx = ctx

    def add_callback(self, cb: Callable[..., None], *args) -> None:
        """Register ``cb(event, *args)``; runs immediately if already fired."""
        engine = self.engine
        if self._fired:
            rec = engine.recorder
            if rec is None:
                cb(self, *args)
                return
            # Recording: the callback runs at max(fire instant, now) — which
            # is "now", but under perturbation either side may dominate.
            saved = engine._rec_ctx
            engine._rec_ctx = rec.join2(self._rec_fire, saved)
            cb(self, *args)
            engine._rec_ctx = saved
        elif engine.recorder is None:
            self._callbacks.append((cb, args))
        else:
            self._callbacks.append((cb, args, engine._rec_ctx))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class Engine:
    """The virtual clock and callback heap.

    Typical use::

        eng = Engine()
        proc = SimProcess(eng, my_generator(), name="rank0")
        eng.run()

    :meth:`run` drains the heap; the clock jumps from event to event, so an
    idle simulation costs nothing.
    """

    # Process-wide aggregates across engines, flushed at the end of every
    # :meth:`run`.  The benchmark harness resets these before an experiment
    # and reads them afterwards so per-experiment reports can show simulator
    # cost (an experiment typically creates and discards many Worlds).
    _agg_events = 0
    _agg_cancelled = 0
    _agg_peak_heap = 0
    _agg_compactions = 0
    #: Serializes aggregate flushes: the tuning service runs one engine per
    #: searching thread, and unlocked ``+=`` on class attributes would lose
    #: updates.  Also taken by :class:`repro.netmodel.fabric.Fabric` for its
    #: own class-level channel aggregates (same flush cadence).
    _agg_lock = threading.Lock()

    def __init__(self):
        self.now: float = 0.0
        # Heap entries: [when, seq, fn, args].  fn is None once cancelled
        # or fired; seq is unique so comparison never reaches fn.  While a
        # recorder is attached, entries grow a fifth slot: the max-plus
        # graph node of the dispatch instant (None for untracked events).
        self._heap: list[list] = []
        self._seq = 0
        self._nevents = 0
        self._ndead = 0  # cancelled entries still physically in the heap
        self._flush: list[Callable[[], None]] = []
        #: Components with process-wide aggregate counters (e.g. the fabric's
        #: per-channel traffic) register a flusher here; :meth:`run` calls
        #: them on exit, right after the engine's own aggregate flush, so
        #: class-level totals are only ever touched under the flush lock
        #: instead of once per event.
        self.aggregate_flushers: list[Callable[[], None]] = []
        self.events_cancelled = 0
        self.peak_heap_size = 0
        self.compactions = 0
        self._flushed = (0, 0, 0)  # (events, cancelled, compactions) reported
        # Event-graph recording (see repro.sim.replay).  Attach a
        # GraphRecorder *before* the first event is created; the hooks are
        # observationally free — they never change when anything runs.
        self.recorder = None
        self._rec_ctx = None      # graph node of the current dispatch
        self._rec_pending = None  # override node for the next schedule_*
        self._rec_suspend = False  # fabric-internal events are not recorded

    # -- statistics ---------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of heap callbacks executed so far (for perf diagnostics)."""
        return self._nevents

    @property
    def heap_size(self) -> int:
        """Current number of heap entries, dead ones included."""
        return len(self._heap)

    @property
    def dead_entries(self) -> int:
        """Cancelled entries currently awaiting reap/compaction."""
        return self._ndead

    @property
    def dead_entry_ratio(self) -> float:
        """Cancelled callbacks as a fraction of all scheduled callbacks."""
        total = self._nevents + self.events_cancelled + len(self._heap)
        return self.events_cancelled / total if total else 0.0

    def stats(self) -> dict:
        """Simulator-cost counters for one engine, as a plain dict."""
        return {
            "events_processed": self._nevents,
            "events_cancelled": self.events_cancelled,
            "peak_heap_size": self.peak_heap_size,
            "heap_compactions": self.compactions,
            "dead_entry_ratio": self.dead_entry_ratio,
        }

    @classmethod
    def reset_aggregate_stats(cls) -> None:
        """Zero the process-wide aggregates (harness: before an experiment)."""
        cls._agg_events = 0
        cls._agg_cancelled = 0
        cls._agg_peak_heap = 0
        cls._agg_compactions = 0

    @classmethod
    def aggregate_stats(cls) -> dict:
        """Process-wide totals accumulated by every :meth:`run` since reset."""
        return {
            "events_processed": cls._agg_events,
            "events_cancelled": cls._agg_cancelled,
            "peak_heap_size": cls._agg_peak_heap,
            "heap_compactions": cls._agg_compactions,
        }

    def _flush_aggregate(self) -> None:
        # Engines run concurrently under the tuning service (one world per
        # searching thread); the class-wide read-modify-write must be
        # serialized or concurrent flushes lose updates.  One uncontended
        # acquire per run() exit — not per event — so the hot loop is
        # untouched.
        ev, ca, co = self._flushed
        cls = type(self)
        with Engine._agg_lock:
            cls._agg_events += self._nevents - ev
            cls._agg_cancelled += self.events_cancelled - ca
            cls._agg_compactions += self.compactions - co
            if self.peak_heap_size > cls._agg_peak_heap:
                cls._agg_peak_heap = self.peak_heap_size
        self._flushed = (self._nevents, self.events_cancelled, self.compactions)

    # -- scheduling ---------------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when nothing is scheduled — with unfinished processes this
        means the simulation can never make progress again (deadlock)."""
        return self.peek() is None

    def schedule_at(self, when: float, fn: Callable[..., None], *args) -> list:
        """Schedule ``fn(*args)`` at ``when``; returns the raw heap entry.

        The entry can be retracted with :meth:`cancel`.  This is the
        allocation-lean primitive for simulator-internal hot paths; code
        outside the core should prefer :meth:`call_at`, whose
        :class:`Timer` handle carries a friendlier API.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now={self.now}"
            )
        self._seq = seq = self._seq + 1
        entry = [when, seq, fn, args]
        if self.recorder is not None:
            node = self._rec_node_at(when)
            if node is not None:
                entry.append(node)
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_after(self, delay: float, fn: Callable[..., None], *args) -> list:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, fn, args]
        if self.recorder is not None:
            node = self._rec_node_after(delay)
            if node is not None:
                entry.append(node)
        heapq.heappush(self._heap, entry)
        return entry

    def _rec_node_at(self, when: float):
        """Graph node for an absolute-time schedule while recording."""
        rec = self.recorder
        pending = self._rec_pending
        if pending is not None:
            self._rec_pending = None
            return pending
        if self._rec_suspend:
            return None
        ctx = self._rec_ctx
        if ctx is None:
            return rec.const(when)  # setup-time schedule: a true constant
        if when == self.now:
            return ctx
        # An absolute time computed from simulation state is a frozen
        # constant the graph cannot re-derive under perturbed params.
        rec.invalidate("absolute-time schedule from inside the event graph")
        return rec.const(when)

    def _rec_node_after(self, delay: float):
        """Graph node for a relative schedule while recording."""
        rec = self.recorder
        pending = self._rec_pending
        if pending is not None:
            self._rec_pending = None
            return pending
        if self._rec_suspend:
            return None
        return rec.shift(self._rec_now(), delay)

    def _rec_now(self):
        """Recording: graph node of the current causal context (outside
        any dispatch, the current instant as a constant)."""
        ctx = self._rec_ctx
        return ctx if ctx is not None else self.recorder.const(self.now)

    def call_at(self, when: float, fn: Callable[..., None], *args) -> Timer:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``.

        Returns a :class:`Timer` that can be cancelled until it fires.
        """
        return Timer(self, self.schedule_at(when, fn, *args))

    def call_after(self, delay: float, fn: Callable[..., None], *args) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        return Timer(self, self.schedule_after(delay, fn, *args))

    def cancel(self, entry: list) -> None:
        """Retract a scheduled entry; safe on fired/cancelled entries."""
        if entry[2] is None:
            return
        if self.recorder is not None and len(entry) > 4 and entry[4] is not None:
            # A retracted recorded event means the schedule's structure
            # depended on timing the graph cannot re-derive.
            self.recorder.invalidate("cancelled a recorded event")
        entry[2] = None
        entry[3] = ()
        self.events_cancelled += 1
        self._ndead += 1
        if self._ndead * 2 > len(self._heap) >= _COMPACT_MIN:
            self._compact()

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh unfired :class:`SimEvent` bound to this engine."""
        return SimEvent(self, name)

    def _rec_join_fired(self, ev: SimEvent) -> None:
        """Recording: fold an already-fired event's firing instant into the
        current causal context.  Needed wherever code *skips* waiting on a
        fired event — under perturbed constants the firing may come later,
        so the continuation depends on both instants."""
        rec = self.recorder
        node = ev._rec_fire
        if node is None:
            node = rec.const(ev.fire_time if ev.fire_time is not None
                             else self.now)
        self._rec_ctx = rec.join2(self._rec_ctx, node)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> SimEvent:
        """An event that fires automatically after ``delay`` virtual seconds."""
        ev = self.event(name or f"timeout({delay})")
        self.schedule_after(delay, ev.succeed, value)
        return ev

    def at_instant_end(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after the current instant's last event, before the
        clock advances (or the run ends).  Hooks run in registration order;
        a hook may schedule new events at the current time (they still
        belong to this instant) or re-register itself for a later instant.
        Only meaningful from inside a callback during :meth:`run`.
        """
        self._flush.append(fn)

    # -- heap hygiene -------------------------------------------------------

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify (O(n)).

        Triggered from :meth:`cancel` once more than half the heap is dead,
        so the heap stays O(live entries) even under workloads that cancel
        most of what they schedule.  Live entries keep their ``(time, seq)``
        keys, so pop order is unchanged.  The rebuild mutates the heap list
        in place (slice assignment): :meth:`run`/:meth:`peek` hold aliases
        to it across callbacks, and a cancel inside a callback lands here.
        """
        self._heap[:] = [e for e in self._heap if e[2] is not None]
        heapq.heapify(self._heap)
        self._ndead = 0
        self.compactions += 1

    # -- running ------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Process events until the heap is empty (or the clock passes ``until``).

        Returns the final virtual time.  Exceptions raised by callbacks (and
        therefore by simulated processes) propagate to the caller.  Events
        scheduled exactly *at* ``until`` still fire; the clock never passes
        ``until``.  End-of-instant hooks pending when the clock would pass
        ``until`` run before this method returns.
        """
        heap = self._heap
        pop = heapq.heappop
        flush = self._flush
        peak = self.peak_heap_size
        recording = self.recorder is not None
        nevents = 0  # batched into _nevents on exit (callbacks never read it)
        try:
            while True:
                while heap:
                    entry = heap[0]
                    fn = entry[2]
                    if fn is None:  # cancelled: reap and move on
                        pop(heap)
                        self._ndead -= 1
                        continue
                    when = entry[0]
                    if flush and when > self.now:
                        # The current instant is complete: run its hooks
                        # before letting the clock advance.
                        for cb in flush:
                            cb()
                        del flush[:]
                        continue  # hooks may have scheduled new events
                    if until is not None and when > until:
                        self.now = until
                        return until
                    hl = len(heap)
                    if hl > peak:
                        peak = hl
                    pop(heap)
                    self.now = when
                    nevents += 1
                    entry[2] = None  # mark fired; cancel() is now a no-op
                    if recording:
                        self._rec_ctx = entry[4] if len(entry) > 4 else None
                    fn(*entry[3])
                if not flush:
                    break
                for cb in flush:
                    cb()
                del flush[:]
        finally:
            self._nevents += nevents
            if peak > self.peak_heap_size:
                self.peak_heap_size = peak
            self._flush_aggregate()
            for cb in self.aggregate_flushers:
                cb()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def peek(self) -> float | None:
        """Virtual time of the next pending callback, or None if idle.

        Reaps any cancelled entries sitting at the heap top, so the answer
        always refers to a live callback (also after a compaction).
        """
        heap = self._heap
        while heap:
            if heap[0][2] is None:
                heapq.heappop(heap)
                self._ndead -= 1
            else:
                return heap[0][0]
        return None
