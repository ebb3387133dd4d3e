"""Static schedule verifier: symbolic analysis of collective plans (RA3xx).

The runtime :class:`~repro.analysis.verifier.CommVerifier` checks the one
interleaving a simulation happens to execute.  This module closes the gap
for **all** interleavings by symbolically executing
:class:`~repro.mpi.collectives.plan.CollectivePlan` rounds over abstract
ranks — pure data, no engine, no virtual time — and proving four
properties of every plan *set* (the ``p`` per-rank plans of one
collective):

RA301  **deadlock-freedom.**  Build the happens-before graph over
       ``(rank, round)`` nodes under the *synchronous-send* assumption
       (every send blocks until its matching receive is posted — the
       strongest protocol MPI permits, so acyclicity here implies
       deadlock-freedom under eager, rendezvous and any mix).  A cycle is
       a schedule that some protocol/interleaving can wedge.
RA302  **match completeness.**  Pairing each channel's sends and receives
       in posting order (the transport matches FIFO per envelope), every
       send must meet exactly one ``copy``/``add`` and vice versa.
RA303  **match consistency.**  Matched pairs must agree on the element
       range (and therefore the byte count).
RA304  **zero-copy soundness.**  A send whose precomputed ``needs_copy``
       bit is ``False`` hands the transport a zero-copy view; the view may
       be consumed arbitrarily late (eager payloads park in the unexpected
       queue), so *no* ``copy``/``add`` of the same or any later round on
       that rank may overlap the sent range.  This pass recomputes the
       may-alias facts with an independent forward interval sweep, so a
       corrupted bit — whichever layer corrupted it — is caught rather
       than trusted.  The inverse defect (``True`` where no write can ever
       overlap) is reported as the RA305 *warning*: a wasted snapshot,
       not a race.
RA306  **replay-envelope conformance.**  Schedule structure must be a pure
       function of inputs that are invariant under
       :data:`~repro.sim.replay.REPLAY_SAFE_FIELDS` perturbations;
       otherwise a recorded event graph silently replays the *wrong*
       structure when the tuner re-prices it under perturbed constants.
       The protocol-selection functions
       (:data:`~repro.mpi.collectives.plan.SELECTORS`) are executed with a
       field-access-tracing parameter proxy; reading any replay-safe field
       is the finding.
RA307  **structural validity** of the plan data itself (op kinds, peer
       ranges, interval sanity, precomputed sizes, key consistency).
RA308  **channel-claim soundness.**  Kernels that pin communicator colors
       to fabric channels (the pipelined-multicast SUMMA family) declare
       their ``(color, channel)`` claims
       (:func:`repro.dense.summa.summa_channel_claims`); every claimed
       channel must exist on the fabric (``0..num_channels-1`` — an
       out-of-range index would key resources outside the per-channel
       tables) and no two *distinct* colors may claim the same channel:
       their flows would share every ``(link, channel)`` resource while
       the schedule prices them as disjoint capacity.

Entry points
------------
:func:`verify_plan_set` is the core pass over one plan set;
:func:`verify_collective` builds the set for a generator registry key;
:func:`check_plans` walks whole workloads — the tune candidate enumeration
of table1/table2-style signatures, or a single signature — deduplicating
plan sets along the way (the CLI ``python -m repro.analysis check-plans``).
:func:`assert_plan_sound` is the executor's opt-in debug hook
(``World(verify_plans=True)``): it verifies the *live cached* plan set the
runner is about to execute, memoized per key, and raises
:class:`PlanVerificationError` on any error finding.
:func:`mutation_fixtures` returns the deliberately-broken plan sets
(seeded deadlock, flipped alias bit, dropped recv, ...) that the tests and
the CI ``--selftest`` gate require to fail closed with their exact check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.mpi.collectives.plan import (
    GENERATORS,
    SELECTORS,
    CollectivePlan,
    get_plan,
)
from repro.netmodel.params import NetworkParams
from repro.sim.replay import REPLAY_SAFE_FIELDS

#: the op kinds a plan round may contain (receives are ``copy``/``add``).
OP_KINDS = frozenset({"send", "copy", "add"})


class PlanVerificationError(RuntimeError):
    """An executed plan failed static verification (``verify_plans=True``)."""

    def __init__(self, message: str, findings: list[Finding]):
        super().__init__(message)
        self.findings = findings


def _set_label(plans, label: str | None) -> str:
    """Human-readable name of a plan set for finding sites."""
    if label is not None:
        return label
    for plan in plans:
        if plan.key is not None:
            algorithm, p, _me, root, n_elems, itemsize = plan.key
            return f"{algorithm}[p={p},root={root},n={n_elems}x{itemsize}B]"
    return f"<anonymous plan set p={len(plans)}>"


# ---------------------------------------------------------------------------
# core pass: one plan set
# ---------------------------------------------------------------------------


def verify_plan_set(plans, label: str | None = None) -> list[Finding]:
    """Statically verify the per-rank plans of one collective.

    ``plans[me]`` must be rank ``me``'s :class:`CollectivePlan` (local
    ranks ``0..p-1``).  Returns every RA30x finding; an empty list is a
    proof (not a sample) that the schedule is deadlock-free, completely
    matched, and zero-copy sound for all interleavings.
    """
    p = len(plans)
    name = _set_label(plans, label)
    findings: list[Finding] = []

    def emit(check: str, message: str, *, rank=None, **extra) -> None:
        findings.append(Finding(check=check, message=message, rank=rank,
                                site=name, extra=extra))

    # -- RA307: structural validity -------------------------------------------
    for me, plan in enumerate(plans):
        if plan.key is not None:
            algorithm, kp, kme, kroot, kn, kitem = plan.key
            if kme != me or kp != p:
                emit("RA307",
                     f"plan at local rank {me} carries key rank={kme}, "
                     f"p={kp} (set has p={p}); the set was assembled from "
                     f"mismatched cache keys", rank=me)
        for r, ops in enumerate(plan.rounds):
            for idx, op in enumerate(ops):
                ok = (
                    isinstance(op, tuple) and len(op) == 6
                    and op[0] in OP_KINDS
                    and isinstance(op[1], int) and 0 <= op[1] < p
                    and op[1] != me
                    and 0 <= op[2] <= op[3]
                    and op[4] == (op[3] - op[2]) * _itemsize_of(plan)
                )
                if not ok:
                    emit("RA307",
                         f"rank {me} round {r} op {idx} is malformed: "
                         f"{op!r} (kind/peer/range/size invariant violated)",
                         rank=me, round=r, op=idx)

    # -- RA302/RA303: channel matching ----------------------------------------
    # The executor posts a rank's rounds in order and a round's ops in list
    # order; the transport matches FIFO per (src, dst) within one collective
    # tag.  Pairing each channel's sends and receives in that posting order
    # is therefore exact, not heuristic.
    sends: dict[tuple[int, int], list] = {}
    recvs: dict[tuple[int, int], list] = {}
    for me, plan in enumerate(plans):
        for r, ops in enumerate(plan.rounds):
            for idx, op in enumerate(ops):
                kind, peer = op[0], op[1]
                if kind not in OP_KINDS or not (isinstance(peer, int)
                                                and 0 <= peer < p):
                    continue  # malformed; already reported as RA307
                if kind == "send":
                    sends.setdefault((me, peer), []).append((r, idx, op))
                else:
                    recvs.setdefault((peer, me), []).append((r, idx, op))
    pairs: list[tuple] = []  # (src, s_round, dst, r_round) of matched ops
    for chan in sorted(set(sends) | set(recvs)):
        src, dst = chan
        slist = sends.get(chan, [])
        rlist = recvs.get(chan, [])
        if len(slist) != len(rlist):
            emit("RA302",
                 f"channel r{src}->r{dst}: {len(slist)} send(s) but "
                 f"{len(rlist)} receive(s); the surplus op(s) can never "
                 f"complete",
                 rank=src if len(slist) > len(rlist) else dst,
                 channel=chan, sends=len(slist), recvs=len(rlist))
        for (sr, si, sop), (rr, ri, rop) in zip(slist, rlist):
            if (sop[2], sop[3]) != (rop[2], rop[3]):
                emit("RA303",
                     f"channel r{src}->r{dst}: send [{sop[2]},{sop[3]}) in "
                     f"round {sr} is matched by {rop[0]} [{rop[2]},{rop[3]}) "
                     f"in round {rr}; ranges must be identical",
                     rank=src, channel=chan, send_round=sr, recv_round=rr)
            pairs.append((src, sr, dst, rr))

    # -- RA301: happens-before cycle over (rank, round) nodes -----------------
    # Completion of (rank, round) requires: the rank's previous round
    # (posting order), the sender's preceding rounds for each receive
    # (the send must be *posted*), and — synchronous-send assumption — the
    # receiver's preceding rounds for each send (the receive must be
    # posted before a blocking send can complete).
    edges: dict[tuple[int, int], set] = {}

    def edge(a: tuple[int, int], b: tuple[int, int]) -> None:
        edges.setdefault(a, set()).add(b)

    for me, plan in enumerate(plans):
        for r in range(1, len(plan.rounds)):
            edge((me, r), (me, r - 1))
    for src, sr, dst, rr in pairs:
        if sr > 0:
            edge((dst, rr), (src, sr - 1))   # recv waits for the send post
        if rr > 0:
            edge((src, sr), (dst, rr - 1))   # sync send waits for recv post
    cycle = _find_cycle(edges)
    if cycle is not None:
        text = " -> ".join(f"r{rank}:round{rnd}" for rank, rnd in cycle)
        emit("RA301",
             f"send/recv dependency cycle {text}; under rendezvous "
             f"(synchronous-send) semantics no rank in the cycle can "
             f"complete its round", cycle=cycle)

    # -- RA304/RA305: zero-copy soundness -------------------------------------
    # Independent forward sweep: a zero-copy send's view may be consumed any
    # time after posting (eager payloads park in the unexpected queue until
    # the receiver posts), so any same-or-later-round receive overlapping
    # the range is a race.  This recomputes the may-alias facts from the op
    # intervals alone — it does not trust the plan builder's pass.
    for me, plan in enumerate(plans):
        writes = [
            (r, op[2], op[3])
            for r, ops in enumerate(plan.rounds)
            for op in ops
            if op[0] in ("copy", "add") and op[3] > op[2]
        ]
        for r, ops in enumerate(plan.rounds):
            for idx, op in enumerate(ops):
                if op[0] != "send" or op[3] <= op[2]:
                    continue
                lo, hi, needs_copy = op[2], op[3], op[5]
                hazard = next(
                    ((wr, wlo, whi) for wr, wlo, whi in writes
                     if wr >= r and wlo < hi and lo < whi), None)
                if hazard is not None and not needs_copy:
                    wr, wlo, whi = hazard
                    emit("RA304",
                         f"rank {me} round {r}: zero-copy send "
                         f"[{lo},{hi}) overlaps the receive [{wlo},{whi}) "
                         f"of round {wr}; the in-flight view can observe "
                         f"the concurrent write — the op needs "
                         f"needs_copy=True", rank=me, round=r, op=idx,
                         write_round=wr)
                elif hazard is None and needs_copy:
                    emit("RA305",
                         f"rank {me} round {r}: send [{lo},{hi}) snapshots "
                         f"its buffer but no same-or-later-round receive "
                         f"overlaps the range; the copy is provably "
                         f"unnecessary", rank=me, round=r, op=idx)
    return findings


def _itemsize_of(plan: CollectivePlan) -> int:
    """Itemsize a plan was built with (from its key, else inferred)."""
    if plan.key is not None:
        return plan.key[5]
    for ops in plan.rounds:
        for op in ops:
            if len(op) == 6 and op[3] > op[2]:
                return op[4] // (op[3] - op[2])
    return 1


def _find_cycle(edges: dict) -> list | None:
    """First dependency cycle ``[n0, n1, ..., n0]`` in ``edges``, or None."""
    visiting: dict = {}
    visited: set = set()
    for start in sorted(edges):
        if start in visited:
            continue
        stack = [(start, iter(sorted(edges.get(start, ()))))]
        visiting[start] = 0
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt in visiting:
                    return path[visiting[nxt]:] + [nxt]
                if nxt in visited:
                    continue
                visiting[nxt] = len(path)
                path.append(nxt)
                stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                advanced = True
                break
            if not advanced:
                stack.pop()
                path.pop()
                del visiting[node]
                visited.add(node)
    return None


# ---------------------------------------------------------------------------
# generator-registry and cache-backed plan sets
# ---------------------------------------------------------------------------


def build_plan_set(algorithm: str, p: int, root: int = 0, n_elems: int = 0,
                   itemsize: int = 8) -> list[CollectivePlan]:
    """Freshly built per-rank plans for one generator-registry collective."""
    return [CollectivePlan.build(algorithm, p, me, root, n_elems, itemsize)
            for me in range(p)]


def verify_collective(algorithm: str, p: int, root: int = 0, n_elems: int = 0,
                      itemsize: int = 8) -> list[Finding]:
    """Verify one registry collective from fresh plans (pure static check)."""
    return verify_plan_set(build_plan_set(algorithm, p, root, n_elems,
                                          itemsize))


#: plan-set keys ``(algorithm, p, root, n_elems, itemsize)`` proven clean by
#: :func:`assert_plan_sound` this process — the executor-hook memo.
_VERIFIED: set[tuple] = set()


def reset_verified_cache() -> None:
    """Forget every proven plan set (tests corrupt cached plans in place)."""
    _VERIFIED.clear()


def assert_plan_sound(plan: CollectivePlan) -> None:
    """Executor debug hook: verify the live cached set ``plan`` belongs to.

    Looks the peer plans up through the shared cache — so a corrupted
    *cached* plan is caught, not just a misbuilt one — memoizes proven
    keys, and raises :class:`PlanVerificationError` carrying the findings
    when any error-severity finding exists.  Plans wrapped from raw
    schedules (``key is None``) have no cross-rank set to verify and are
    skipped.
    """
    key = plan.key
    if key is None:
        return
    algorithm, p, _me, root, n_elems, itemsize = key
    set_key = (algorithm, p, root, n_elems, itemsize)
    if set_key in _VERIFIED:
        return
    plans = [get_plan(algorithm, p, me, root, n_elems, itemsize)
             for me in range(p)]
    findings = [f for f in verify_plan_set(plans) if f.severity == "error"]
    if findings:
        rendered = "\n".join(f.render() for f in findings)
        raise PlanVerificationError(
            f"plan {set_key} failed static verification:\n{rendered}",
            findings,
        )
    _VERIFIED.add(set_key)


# ---------------------------------------------------------------------------
# RA306: replay-envelope conformance of the protocol selectors
# ---------------------------------------------------------------------------


class _TraceParams:
    """Read-tracing proxy over :class:`NetworkParams` (symbolic execution)."""

    __slots__ = ("_base", "reads")

    def __init__(self, base: NetworkParams):
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "reads", set())

    def __getattr__(self, name: str):
        self.reads.add(name)
        return getattr(self._base, name)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover
        raise AttributeError("selector parameters are read-only")


def verify_selector_envelope(p: int, n_elems: int, itemsize: int = 8,
                             params: NetworkParams | None = None,
                             verbs=None) -> list[Finding]:
    """RA306/RA307 over the protocol-selection functions for one op shape.

    Runs every selector in :data:`SELECTORS` (or the given ``verbs``) with
    a field-access-tracing parameter proxy: reading any
    :data:`REPLAY_SAFE_FIELDS` member means the *structure* of the chosen
    schedule varies with a constant the replay envelope allows to change —
    a recording made under one value would silently replay the wrong
    schedule under another.
    """
    findings: list[Finding] = []
    base = params or NetworkParams()
    for verb in sorted(verbs if verbs is not None else SELECTORS):
        tracer = _TraceParams(base)
        algorithm = SELECTORS[verb](p, n_elems, itemsize, tracer)
        site = f"select:{verb}[p={p},n={n_elems}x{itemsize}B]"
        unsafe = sorted(tracer.reads & REPLAY_SAFE_FIELDS)
        if unsafe:
            findings.append(Finding(
                check="RA306",
                message=(
                    f"{verb} schedule selection read replay-safe "
                    f"field(s) {unsafe}; schedule structure must not "
                    f"depend on constants the replay envelope lets vary "
                    f"(REPLAY_SAFE_FIELDS)"),
                site=site, extra={"fields": unsafe},
            ))
        if algorithm not in GENERATORS:
            findings.append(Finding(
                check="RA307",
                message=(f"{verb} selection returned {algorithm!r}, which "
                         f"is not a registered schedule generator"),
                site=site,
            ))
    return findings


# ---------------------------------------------------------------------------
# RA308: channel-claim soundness of color-to-lane pinnings
# ---------------------------------------------------------------------------


def verify_channel_claims(claims, num_channels: int,
                          label: str) -> list[Finding]:
    """RA308 over a kernel's declared ``(color, channel)`` pinning.

    ``claims`` lists which fabric channel each communicator color rides
    (e.g. :func:`repro.dense.summa.summa_channel_claims`).  Two defects
    are findings: a channel outside ``0..num_channels-1`` (the fabric has
    no such lane — resource keys would index past the per-channel
    tables), and two *different* colors claiming one channel (every
    ``(link, channel)`` resource is shared, so the disjoint-capacity
    assumption the colored schedule is priced under is false).  The same
    color may appear repeatedly — re-claiming its own lane is idempotent.
    """
    findings: list[Finding] = []
    owner: dict[int, int] = {}
    for color, channel in claims:
        if not (isinstance(channel, int) and 0 <= channel < num_channels):
            findings.append(Finding(
                check="RA308",
                message=(f"color {color} claims channel {channel!r}, "
                         f"outside the fabric's 0..{num_channels - 1} "
                         f"lane range"),
                site=label, extra={"color": color, "channel": channel}))
            continue
        first = owner.setdefault(channel, color)
        if first != color:
            findings.append(Finding(
                check="RA308",
                message=(f"colors {first} and {color} both claim channel "
                         f"{channel}; their flows share every (link, "
                         f"channel) resource the colored schedule prices "
                         f"as disjoint"),
                site=label,
                extra={"colors": (first, color), "channel": channel}))
    return findings


# ---------------------------------------------------------------------------
# Cannon shift-plan consistency (the 2.5D kernels' P2P itineraries)
# ---------------------------------------------------------------------------


def verify_cannon_shift_plans(q: int, n: int, steps: int,
                              offset: int = 0) -> list[Finding]:
    """Cross-rank consistency of the memoized Cannon itineraries.

    For every process ``(i, j)`` of a ``q x q`` layer the alignment peers
    must pair up (the rank I name as my A-source must name my column as
    its A-destination, and symmetrically for B), and each shift step's
    travelling block dimension must agree between the sendrecv neighbours
    — otherwise a sendrecv pairs messages of different sizes (RA303) or
    never pairs at all (RA302).
    """
    from repro.mpi.collectives.plan import cannon_shift_plan

    findings: list[Finding] = []
    site = f"cannon[q={q},n={n},steps={steps},offset={offset}]"

    def emit(check: str, message: str, **extra) -> None:
        findings.append(Finding(check=check, message=message, site=site,
                                extra=extra))

    plans = {(i, j): cannon_shift_plan(q, i, j, n, steps, offset)
             for i in range(q) for j in range(q)}
    for (i, j), ((a_dst, a_src, b_dst, b_src, _l0), shifts) in plans.items():
        # Alignment symmetry: my A-source's A-destination is me.
        src_align = plans[(i, a_src)][0]
        if src_align[0] != j:
            emit("RA302",
                 f"A alignment of ({i},{j}) expects its block from column "
                 f"{a_src}, but ({i},{a_src}) sends to column "
                 f"{src_align[0]}; the sendrecv never pairs",
                 coords=(i, j))
        src_align_b = plans[(b_src, j)][0]
        if src_align_b[2] != i:
            emit("RA302",
                 f"B alignment of ({i},{j}) expects its block from row "
                 f"{b_src}, but ({b_src},{j}) sends to row "
                 f"{src_align_b[2]}; the sendrecv never pairs",
                 coords=(i, j))
        # Shift-step sizes: the A block arriving after step t comes from the
        # right neighbour and must be the dimension I multiply at step t+1.
        right = plans[(i, (j + 1) % q)][1]
        for t in range(steps - 1):
            if right[t][1] != shifts[t + 1][1]:
                emit("RA303",
                     f"shift after step {t}: ({i},{(j + 1) % q}) forwards a "
                     f"{right[t][1]}-wide A block but ({i},{j}) multiplies "
                     f"a {shifts[t + 1][1]}-wide block at step {t + 1}",
                     coords=(i, j), step=t)
    return findings


# ---------------------------------------------------------------------------
# workload walk: kernel plan populations x tune candidates
# ---------------------------------------------------------------------------


@dataclass
class PlanCheckReport:
    """Outcome of :func:`check_plans` (what the CLI renders)."""

    findings: list[Finding] = field(default_factory=list)
    plan_sets: int = 0        #: distinct plan sets verified
    selector_checks: int = 0  #: selector-envelope checks run
    cannon_checks: int = 0    #: Cannon itinerary families verified
    channel_checks: int = 0   #: channel-claim (RA308) checks run
    workloads: list[str] = field(default_factory=list)
    candidates: int = 0       #: candidate configurations walked

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def summary(self) -> str:
        e = len(self.errors())
        w = len(self.findings) - e
        return (
            f"check-plans: {len(self.workloads)} workload(s), "
            f"{self.candidates} candidate(s), {self.plan_sets} plan set(s), "
            f"{self.selector_checks} selector check(s), "
            f"{self.cannon_checks} cannon famil{'y' if self.cannon_checks == 1 else 'ies'}, "
            f"{self.channel_checks} channel claim(s) "
            f"-> {e} error(s), {w} warning(s)"
        )


def check_plans(signatures=None, *, params: NetworkParams | None = None,
                machine=None, pessimism_warnings: bool = True,
                ) -> PlanCheckReport:
    """Verify every plan a set of workloads can put in front of the executor.

    For each signature, the tune candidate enumeration supplies the
    configurations a tuned run may pick (algorithm variant, ``N_DUP``,
    mesh factorization, collective override); each candidate's kernel
    describes its collective-op population (``KernelSpec.population``); the
    protocol selectors map each op to a generator under the candidate's
    effective parameters; and every distinct resulting plan set is verified
    once.  Kernels add their own static checks through
    ``KernelSpec.static_checks`` (2.5D: the Cannon shift itineraries;
    SUMMA: the color-to-lane claims, RA308).

    ``signatures=None`` walks the default population: the table1/table2
    quick workloads (the acceptance gate).  ``pessimism_warnings=False``
    drops RA305 warnings from the report (they are advisory).
    """
    from repro.kernels import KERNELS
    from repro.tune.candidates import apply_collective, enumerate_candidates

    if signatures is None:
        signatures = default_signatures(params=params, machine=machine)
    report = PlanCheckReport()
    seen_sets: set[tuple] = set()
    seen_selectors: set[tuple] = set()
    seen_extra: set[tuple] = set()
    seen_cand: set[tuple] = set()
    base = params or NetworkParams()
    for sig in signatures:
        report.workloads.append(sig.key)
        spec = KERNELS[sig.kernel]
        for cand in enumerate_candidates(sig, machine=machine):
            # PPN moves ranks across nodes but never changes a schedule;
            # dedupe so the walk is the distinct plan-shaping configs.
            cand_key = (cand.kernel, cand.algorithm, cand.mesh, cand.n_dup,
                        cand.collective, sig.n)
            if cand_key in seen_cand:
                continue
            seen_cand.add(cand_key)
            report.candidates += 1
            eff = apply_collective(base, cand.collective)
            for verb, size, root, n_elems, itemsize in sorted(
                    set(spec.population(cand, sig.n))):
                sel_key = (verb, size, n_elems, itemsize,
                           eff.long_message_threshold)
                if sel_key not in seen_selectors:
                    seen_selectors.add(sel_key)
                    report.selector_checks += 1
                    report.findings.extend(verify_selector_envelope(
                        size, n_elems, itemsize, eff, verbs=(verb,)))
                algorithm = SELECTORS[verb](size, n_elems, itemsize, eff)
                set_key = (algorithm, size, root, n_elems, itemsize)
                if set_key in seen_sets:
                    continue
                seen_sets.add(set_key)
                report.plan_sets += 1
                report.findings.extend(verify_plan_set(
                    build_plan_set(*set_key)))
            for counter, findings in spec.static_checks(cand, sig.n, base,
                                                        seen_extra):
                setattr(report, counter, getattr(report, counter) + 1)
                report.findings.extend(findings)
    if not pessimism_warnings:
        report.findings = [f for f in report.findings if f.check != "RA305"]
    report.findings.sort(key=lambda f: (f.site or "", f.check))
    return report


def signature_from_key(key: str):
    """Rebuild a :class:`WorkloadSignature` from its canonical key string.

    Accepts the ``kernel:nN:rR:mAxBxC:ppnP:placement:fabric`` format of
    :attr:`~repro.tune.signature.WorkloadSignature.key`.  The trailing
    fabric-hash segment is ignored (and may be omitted): plan *structure*
    is independent of the fabric constants — that independence is exactly
    what RA306 proves — so ``check-plans`` verifies the same plan
    population whichever fabric the key was minted under.
    """
    parts = key.split(":")
    if len(parts) < 5:
        raise ValueError(
            f"malformed signature key {key!r}; expected "
            f"'kernel:nN:rR:mAxBxC:ppnP[:placement[:fabric]]'")
    kernel, n_s, r_s, mesh_s, ppn_s = parts[:5]
    placement = parts[5] if len(parts) > 5 else "block"
    try:
        n = int(n_s.removeprefix("n"))
        ranks = int(r_s.removeprefix("r"))
        mesh = tuple(int(x) for x in mesh_s.removeprefix("m").split("x"))
        ppn = int(ppn_s.removeprefix("ppn"))
    except ValueError:
        raise ValueError(f"malformed signature key {key!r}") from None
    if len(mesh) != 3 or mesh[0] * mesh[1] * mesh[2] != ranks:
        raise ValueError(
            f"signature key {key!r}: mesh {mesh_s!r} does not factor "
            f"{ranks} ranks")
    from repro.tune.signature import signature_for

    return signature_for(kernel, mesh, n, ppn=ppn, placement=placement)


def default_signatures(*, params=None, machine=None):
    """The table1/table2 quick workloads — the CI acceptance population.

    Table I sweeps Algorithms 3-5 and Table II the ``N_DUP`` axis, both on
    the ``4^3`` mesh over the three molecular systems; one ``ssc``
    signature per system dimension covers both tables (the candidate
    enumeration spans every algorithm and ``N_DUP``), a small 2.5D
    signature keeps Algorithm 6's plan space and Cannon itineraries in
    the gate, and a SUMMA signature walks the pipelined-multicast family
    (its channel claims included — RA308).
    """
    from repro.purify import SYSTEMS
    from repro.tune.signature import (signature_for_ssc, signature_for_ssc25d,
                                      signature_for_summa)

    sigs = [signature_for_ssc(4, n, params=params, machine=machine)
            for n, _nocc in SYSTEMS.values()]
    sigs.append(signature_for_ssc25d(4, 2, 512, params=params,
                                     machine=machine))
    sigs.append(signature_for_summa(4, 1024, params=params, machine=machine))
    return sigs


# ---------------------------------------------------------------------------
# mutation fixtures (fail-closed gates for tests and `check-plans --selftest`)
# ---------------------------------------------------------------------------


def _clone_with_rounds(plan: CollectivePlan, rounds) -> CollectivePlan:
    """A structural copy of ``plan`` with substituted rounds.

    Bypasses ``__init__`` on purpose: the fixtures corrupt precomputed
    facts (alias bits) that rebuilding would silently repair.
    """
    clone = object.__new__(CollectivePlan)
    clone.key = plan.key
    clone.rounds = tuple(tuple(ops) for ops in rounds)
    clone.round_max_nbytes = plan.round_max_nbytes
    return clone


def flip_needs_copy(plan: CollectivePlan, round_idx: int,
                    op_idx: int) -> CollectivePlan:
    """Copy of ``plan`` with one op's ``needs_copy`` bit inverted."""
    rounds = [list(ops) for ops in plan.rounds]
    op = rounds[round_idx][op_idx]
    rounds[round_idx][op_idx] = op[:5] + (not op[5],)
    return _clone_with_rounds(plan, rounds)


def drop_op(plan: CollectivePlan, round_idx: int,
            op_idx: int) -> CollectivePlan:
    """Copy of ``plan`` with one op removed (an unmatched-peer seed)."""
    rounds = [list(ops) for ops in plan.rounds]
    del rounds[round_idx][op_idx]
    return _clone_with_rounds(plan, rounds)


def _find_op(plans, kind: str, needs_copy: bool | None = None):
    """First ``(me, round, idx)`` of an op of ``kind`` in a plan set."""
    for me, plan in enumerate(plans):
        for r, ops in enumerate(plan.rounds):
            for idx, op in enumerate(ops):
                if op[0] != kind or op[3] <= op[2]:
                    continue
                if needs_copy is not None and op[5] is not needs_copy:
                    continue
                return me, r, idx
    raise LookupError(f"no {kind} op (needs_copy={needs_copy}) in plan set")


def mutation_fixtures() -> dict[str, tuple[list[CollectivePlan], str]]:
    """Deliberately-broken plan sets -> their one expected error check.

    Used by the tests and ``check-plans --selftest``: the verifier must
    fail closed, reporting *exactly* the seeded defect's check ID.
    """
    fixtures: dict[str, tuple[list[CollectivePlan], str]] = {}

    # Seeded deadlock: two ranks exchange head-to-head — both send in round
    # 0 and receive in round 1, a cycle under synchronous-send semantics.
    n = 16
    head_to_head = [
        CollectivePlan.from_schedule(
            [[("send", 1 - me, 0, n)], [("copy", 1 - me, 0, n)]], 8)
        for me in range(2)
    ]
    fixtures["seeded-deadlock"] = (head_to_head, "RA301")

    # Dropped recv: remove rank 1's copy from a binomial broadcast — the
    # root's send to it can never complete.
    bcast = build_plan_set("bcast_binomial", 4, 0, n)
    me, r, idx = _find_op([bcast[1]], "copy")
    bcast = list(bcast)
    bcast[1] = drop_op(bcast[1], r, idx)
    fixtures["dropped-recv"] = (bcast, "RA302")

    # Shrunk recv: the receive narrows its range — matched sizes disagree.
    bcast2 = build_plan_set("bcast_binomial", 4, 0, n)
    me, r, idx = _find_op([bcast2[1]], "copy")
    rounds = [list(ops) for ops in bcast2[1].rounds]
    kind, peer, lo, hi, _nb, nc = rounds[r][idx]
    rounds[r][idx] = (kind, peer, lo, hi - 1, (hi - 1 - lo) * 8, nc)
    bcast2 = list(bcast2)
    bcast2[1] = _clone_with_rounds(bcast2[1], rounds)
    fixtures["shrunk-recv"] = (bcast2, "RA303")

    # Flipped alias bit: allreduce_short's reduce-phase send is overwritten
    # by the broadcast-phase receive, so its needs_copy must be True;
    # flipping it to False is the unsound-zero-copy defect.
    short = build_plan_set("allreduce_short", 4, 0, n)
    me, r, idx = _find_op(short, "send", needs_copy=True)
    short = list(short)
    short[me] = flip_needs_copy(short[me], r, idx)
    fixtures["flipped-alias-bit"] = (short, "RA304")

    # Corrupted op: a peer outside the communicator (structural damage).
    ring = build_plan_set("allgather_ring", 4, 0, n)
    rounds = [list(ops) for ops in ring[0].rounds]
    kind, _peer, lo, hi, nb, nc = rounds[0][0]
    rounds[0][0] = (kind, 9, lo, hi, nb, nc)
    ring = list(ring)
    ring[0] = _clone_with_rounds(ring[0], rounds)
    fixtures["corrupt-peer"] = (ring, "RA307")

    return fixtures


def channel_claim_fixtures() -> dict[str, tuple[list, int, str]]:
    """Deliberately-broken channel claims -> ``(claims, num_channels, check)``.

    The RA308 analogue of :func:`mutation_fixtures`: each entry corrupts
    the 4-color SUMMA claim set one way (a lane past the fabric's range; a
    collision where two colors map onto one lane) and must fail closed
    with exactly RA308.
    """
    from repro.dense.summa import summa_channel_claims

    good = summa_channel_claims(4, algorithm="colored", colors=4, depth=4)
    collided = [(color, channel % 2) for color, channel in good]
    return {
        # 4 colors but only a 2-lane fabric: colors 2 and 3 are out of range.
        "channel-out-of-range": (good, 2, "RA308"),
        # Colors folded onto lanes 0/1 of a 4-lane fabric: pairwise sharing.
        "colliding-colors": (collided, 4, "RA308"),
    }


def run_selftest() -> list[str]:
    """Run every mutation fixture; returns failure descriptions (empty = ok).

    Each fixture must produce its expected check among the *error*
    findings, and the unmutated library population must verify clean —
    the two directions of fail-closed.
    """
    failures: list[str] = []
    for name, (plans, expected) in sorted(mutation_fixtures().items()):
        checks = {f.check for f in verify_plan_set(plans, label=name)
                  if f.severity == "error"}
        if expected not in checks:
            failures.append(
                f"{name}: expected {expected} among error findings, got "
                f"{sorted(checks) or 'none'}")
        # The seeded defect must not drown in unrelated error noise.
        unexpected = checks - {expected, "RA302", "RA303"}
        if name == "corrupt-peer":
            unexpected -= {"RA301"}  # a corrupt peer also breaks matching
        if unexpected:
            failures.append(
                f"{name}: unexpected extra error checks {sorted(unexpected)}")
    for name, (claims, nch, expected) in sorted(
            channel_claim_fixtures().items()):
        checks = {f.check
                  for f in verify_channel_claims(claims, nch, label=name)}
        if expected not in checks:
            failures.append(
                f"{name}: expected {expected} among error findings, got "
                f"{sorted(checks) or 'none'}")
        if checks - {expected}:
            failures.append(
                f"{name}: unexpected extra error checks "
                f"{sorted(checks - {expected})}")
    for algorithm in sorted(GENERATORS):
        for p in (2, 3, 4, 5, 8):
            findings = [f for f in verify_collective(algorithm, p, 0, 64)
                        if f.severity == "error"]
            if findings:
                failures.append(
                    f"{algorithm} p={p}: library plans not clean: "
                    + "; ".join(f.render() for f in findings))
    # The clean direction of RA308: every valid SUMMA variant's claims.
    from repro.dense.summa import summa_channel_claims

    for algorithm, colors, depth in (("plain", 1, 1), ("streaming", 1, 4),
                                     ("colored", 2, 2), ("colored", 4, 4)):
        claims = summa_channel_claims(4, algorithm=algorithm, colors=colors,
                                      depth=depth)
        bad = verify_channel_claims(claims, max(colors, 1),
                                    f"summa-{algorithm}-{colors}")
        if bad:
            failures.append(
                f"summa {algorithm} colors={colors}: claims not clean: "
                + "; ".join(f.render() for f in bad))
    return failures
