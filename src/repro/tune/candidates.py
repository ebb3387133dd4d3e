"""Candidate configurations and their generator.

A :class:`Candidate` is one fully-specified way to run a kernel for a given
:class:`~repro.tune.signature.WorkloadSignature`: the algorithm variant,
the ``N_DUP`` duplicated-communicator count, the processes-per-node, the
mesh shape (the 2.5D replication factor ``c`` rides in here), and the
collective-algorithm override.  It is also the configuration object
:func:`repro.kernels.run_kernel` runs.  The generator enumerates every
*valid* combination of the kernel's own axes (``KernelSpec.axes``) with
the PPN and collective axes — validity is the kernel's
``KernelSpec.validate`` (:mod:`repro.tune.validity`), the same rule a
direct run enforces, so an invalid candidate can never reach the simulator.

Knob vocabulary
---------------
``N_DUP``
    Drawn from the divisors of :data:`PARTS_BUDGET` (24), capped at
    :data:`MAX_N_DUP` — the paper sweeps 1-6 and settles on 4.
``ppn``
    :data:`PPN_CHOICES`, capped by the machine's cores per node (the total
    rank count is fixed by the signature; more PPN = fewer nodes).
``mesh``
    Fixed at ``(p, p, p)`` for the 3D kernel; for the 2.5D kernel every
    ``q x q x c`` factorization of the signature's rank count with ``c | q``
    is a candidate (the replication-factor axis of Algorithm 6).
``collective``
    ``"auto"`` keeps the library's size-based algorithm selection;
    ``"binomial"`` / ``"long"`` force the short-message binomial or the
    long-message (scatter-allgather / Rabenseifner / ring) schedules for
    every collective, via the ``long_message_threshold`` knob.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netmodel.params import MachineParams, NetworkParams
from repro.tune.signature import WorkloadSignature, kernel_spec

#: N_DUP candidates are the divisors of this pipeline-parts budget ...
PARTS_BUDGET = 24
#: ... capped here (the paper's sweep tops out at 6; 8 covers the plateau).
MAX_N_DUP = 8
#: Processes-per-node candidates (Table III's sweep).
PPN_CHOICES = (1, 2, 4, 6, 8)
#: Collective-algorithm override choices.
COLLECTIVE_CHOICES = ("auto", "binomial", "long")
#: Pre-posted broadcast-window depths swept for the pipelined SUMMA
#: variants (``depth=1`` only validates for streaming).
SUMMA_DEPTH_CHOICES = (1, 2, 4)

#: A threshold above every realistic message forces binomial schedules ...
_FORCE_BINOMIAL_THRESHOLD = 2 ** 62
#: ... and zero forces the long-message schedules (p <= 2 stays binomial).
_FORCE_LONG_THRESHOLD = 0


def divisors(m: int) -> tuple[int, ...]:
    """The positive divisors of ``m``, ascending."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return tuple(d for d in range(1, m + 1) if m % d == 0)


def n_dup_choices(cap: int = MAX_N_DUP) -> tuple[int, ...]:
    """Valid N_DUP values: divisors of :data:`PARTS_BUDGET` up to ``cap``."""
    return tuple(d for d in divisors(PARTS_BUDGET) if d <= cap)


def apply_collective(params: NetworkParams, collective: str) -> NetworkParams:
    """Return ``params`` with the candidate's collective override applied."""
    if collective == "auto":
        return params
    if collective == "binomial":
        return params.replace(long_message_threshold=_FORCE_BINOMIAL_THRESHOLD)
    if collective == "long":
        return params.replace(long_message_threshold=_FORCE_LONG_THRESHOLD)
    raise ValueError(
        f"unknown collective override {collective!r}; "
        f"pick from {sorted(COLLECTIVE_CHOICES)}"
    )


@dataclass(frozen=True)
class Candidate:
    """One fully-specified kernel configuration."""

    kernel: str                   #: a :data:`repro.kernels.KERNELS` key
    algorithm: str                #: SSC/SUMMA variant, or "ssc25d" for Alg. 6
    mesh: tuple[int, int, int]    #: (pi, pj, pk); pk is the 2.5D ``c``
    n_dup: int                    #: N_DUP (SSC) / color count (SUMMA)
    ppn: int
    collective: str = "auto"
    #: Pre-posted broadcast-window depth of the pipelined SUMMA variants.
    #: Kept out of ``key``/``as_dict`` at the default so every pre-existing
    #: ssc/ssc25d key and serialized record is byte-identical (no
    #: ``DB_SCHEMA`` bump).
    depth: int = 1

    @property
    def key(self) -> str:
        """Stable short id used in decision traces and tables."""
        pi, pj, pk = self.mesh
        base = (
            f"{self.algorithm}:m{pi}x{pj}x{pk}:nd{self.n_dup}"
            f":ppn{self.ppn}:{self.collective}"
        )
        if self.depth != 1:
            base += f":t{self.depth}"
        return base

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        d = {
            "kernel": self.kernel,
            "algorithm": self.algorithm,
            "mesh": list(self.mesh),
            "n_dup": self.n_dup,
            "ppn": self.ppn,
            "collective": self.collective,
        }
        if self.depth != 1:
            d["depth"] = self.depth
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Candidate":
        return cls(
            kernel=d["kernel"], algorithm=d["algorithm"],
            mesh=tuple(int(x) for x in d["mesh"]), n_dup=int(d["n_dup"]),
            ppn=int(d["ppn"]), collective=d.get("collective", "auto"),
            depth=int(d.get("depth", 1)),
        )

    def validate(self, n: int) -> None:
        """Re-check this candidate against the kernel validity rules."""
        kernel_spec(self.kernel).validate(self, n, None)


def effective_params(cand: Candidate,
                     params: NetworkParams | None = None) -> NetworkParams:
    """The fabric ``cand`` runs on: ``params`` with its collective override
    applied and widened to the lanes it pins traffic to.

    A lane-pinned candidate (colored SUMMA) needs one fabric channel per
    color; running or scoring it IS running that fabric configuration.
    """
    eff = apply_collective(params or NetworkParams(), cand.collective)
    lanes = kernel_spec(cand.kernel).lanes(cand)
    return eff if eff.num_channels >= lanes else eff.replace(num_channels=lanes)


def _ppn_choices(machine: MachineParams | None) -> tuple[int, ...]:
    cores = (machine or MachineParams()).cores_per_node
    return tuple(p for p in PPN_CHOICES if p <= cores)


def meshes_25d(ranks: int) -> tuple[tuple[int, int, int], ...]:
    """Every valid ``q x q x c`` factorization of ``ranks`` with ``c | q``."""
    out = []
    q = 1
    while q * q <= ranks:
        if ranks % (q * q) == 0:
            c = ranks // (q * q)
            if c <= q and q % c == 0:
                out.append((q, q, c))
        q += 1
    return tuple(sorted(out))


def enumerate_candidates(
    sig: WorkloadSignature,
    machine: MachineParams | None = None,
    collectives: tuple[str, ...] = COLLECTIVE_CHOICES,
) -> list[Candidate]:
    """All valid candidates for ``sig``, deterministically ordered.

    Invalid combinations (non-dividing ``N_DUP``/``c``, pipeline on a
    non-optimized variant, ...) are filtered with the exact kernel rules;
    the order is a pure function of the signature so searches (and their
    early-termination decisions) replay bit-for-bit.
    """
    cands: list[Candidate] = []
    for algorithm, mesh, n_dup, depth in kernel_spec(sig.kernel).axes(sig):
        for ppn in _ppn_choices(machine):
            for collective in collectives:
                cand = Candidate(
                    kernel=sig.kernel, algorithm=algorithm, mesh=mesh,
                    n_dup=n_dup, ppn=ppn, collective=collective, depth=depth,
                )
                try:
                    cand.validate(sig.n)
                except ValueError:
                    continue
                cands.append(cand)
    cands.sort(key=lambda cand: cand.key)
    return cands


def paper_default_candidate(sig: WorkloadSignature) -> Candidate:
    """The paper's default configuration for ``sig`` (``KernelSpec.default``)
    at the signature's requested PPN — the tuning baseline."""
    return kernel_spec(sig.kernel).default(sig)
