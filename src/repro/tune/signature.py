"""Workload signatures — the keys of every tuning decision.

A :class:`WorkloadSignature` pins down everything the best configuration of
a kernel can depend on: the kernel id, the matrix dimension, the process
mesh and rank count, the requested processes-per-node budget, the placement
policy, and a short stable hash of the fabric constants
(:class:`~repro.netmodel.params.NetworkParams` +
:class:`~repro.netmodel.params.MachineParams`).  Two calls with the same
signature may share a tuning record; any change to the fabric constants
changes the hash and therefore invalidates warm starts automatically.

Signatures are plain frozen dataclasses with a canonical string ``key`` —
the tuning database is keyed on that string, so its format is part of the
db schema (bump :data:`repro.tune.db.DB_SCHEMA` when changing it).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from repro.netmodel.params import MachineParams, NetworkParams

#: Length of the truncated fabric-hash hex digest embedded in keys.
FABRIC_HASH_LEN = 12


def fabric_hash(params: NetworkParams | None,
                machine: MachineParams | None) -> str:
    """Short stable hash of the network + machine constants.

    Field values are serialized in sorted-key JSON (floats via ``repr`` are
    deterministic in Python 3), then SHA-256'd and truncated — enough to
    detect any perturbed constant while keeping db keys readable.
    """
    payload = {
        "network": dataclasses.asdict(params or NetworkParams()),
        "machine": dataclasses.asdict(machine or MachineParams()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:FABRIC_HASH_LEN]


@dataclass(frozen=True)
class WorkloadSignature:
    """Immutable description of one tunable workload."""

    kernel: str          #: a :data:`repro.kernels.KERNELS` key
    n: int               #: matrix dimension
    ranks: int           #: total process count (fixed by the caller)
    mesh: tuple[int, int, int]  #: requested mesh shape (pi, pj, pk)
    ppn: int             #: requested processes-per-node (the paper default)
    placement: str       #: "block" or "round_robin"
    fabric: str          #: :func:`fabric_hash` of the fabric constants

    def __post_init__(self) -> None:
        kernel_spec(self.kernel)  # raises ValueError on an unregistered id
        if self.n < 1 or self.ranks < 1 or self.ppn < 1:
            raise ValueError("n, ranks and ppn must all be >= 1")
        pi, pj, pk = self.mesh
        if pi * pj * pk != self.ranks:
            raise ValueError(
                f"mesh {pi}x{pj}x{pk} does not match {self.ranks} ranks"
            )

    @property
    def key(self) -> str:
        """Canonical db key, e.g. ``ssc:n7645:r64:m4x4x4:ppn1:block:ab12...``."""
        pi, pj, pk = self.mesh
        return (
            f"{self.kernel}:n{self.n}:r{self.ranks}:m{pi}x{pj}x{pk}"
            f":ppn{self.ppn}:{self.placement}:{self.fabric}"
        )

    @property
    def workload_key(self) -> str:
        """The key *without* the fabric hash — the identity of the schedule.

        Recorded event graphs are cached and persisted under this key:
        re-pricing one workload under different fabric constants is the
        whole point of replay, so the constants stay out of the cache key
        (compatibility is the recording's own check).
        """
        return self.key.rsplit(":", 1)[0]

    @property
    def family_key(self) -> str:
        """Everything but ``n`` — the interpolation neighborhood.

        Two signatures in the same family run the same kernel on the same
        mesh, rank count, PPN, placement and fabric; only the matrix
        dimension differs.  Within a family, a tuned shortlist at one ``n``
        is a sound warm start for a nearby ``n``: candidate validity and
        the analytic models both vary smoothly in ``n``, while any other
        axis change would alter the candidate space itself.
        """
        pi, pj, pk = self.mesh
        return (
            f"{self.kernel}:r{self.ranks}:m{pi}x{pj}x{pk}"
            f":ppn{self.ppn}:{self.placement}:{self.fabric}"
        )

    def as_dict(self) -> dict:
        """JSON-ready representation (mesh as a list, plus the key)."""
        return {
            "kernel": self.kernel,
            "n": self.n,
            "ranks": self.ranks,
            "mesh": list(self.mesh),
            "ppn": self.ppn,
            "placement": self.placement,
            "fabric": self.fabric,
            "key": self.key,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSignature":
        return cls(
            kernel=d["kernel"], n=int(d["n"]), ranks=int(d["ranks"]),
            mesh=tuple(int(x) for x in d["mesh"]), ppn=int(d["ppn"]),
            placement=d["placement"], fabric=d["fabric"],
        )


def kernel_spec(kernel: str):
    """The registered :class:`~repro.kernels.driver.KernelSpec` of ``kernel``.

    Imported on first use: the kernels import this package's validity
    rules, so the registry cannot be a module-level import here.
    """
    from repro.kernels import KERNELS

    try:
        return KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel!r}; pick from {sorted(KERNELS)}"
        ) from None


def signature_for(kernel: str, mesh: tuple[int, int, int], n: int, *,
                  ppn: int = 1, placement: str = "block",
                  params: NetworkParams | None = None,
                  machine: MachineParams | None = None) -> WorkloadSignature:
    """Signature of one ``kernel`` workload on the requested ``mesh``.

    The mesh is the *requested* shape; axes the tuner is free to move
    (variant, colors, depth, the 2.5D factorization of the same rank
    count) are candidate knobs, not signature axes.
    """
    return WorkloadSignature(
        kernel=kernel, n=n, ranks=math.prod(mesh), mesh=tuple(mesh),
        ppn=max(ppn, 1), placement=placement,
        fabric=fabric_hash(params, machine),
    )


def signature_for_ssc(p: int, n: int, **options) -> WorkloadSignature:
    """Signature of a :func:`repro.kernels.run_ssc` workload (``p^3`` ranks);
    ``options`` as :func:`signature_for`."""
    return signature_for("ssc", kernel_spec("ssc").mesh_shape(p), n, **options)


def signature_for_summa(p: int, n: int, **options) -> WorkloadSignature:
    """Signature of a :func:`repro.dense.run_summa` workload (``p^2`` ranks);
    ``options`` as :func:`signature_for`."""
    return signature_for("summa", kernel_spec("summa").mesh_shape(p), n,
                         **options)


def signature_for_ssc25d(q: int, c: int, n: int,
                         **options) -> WorkloadSignature:
    """Signature of a :func:`repro.kernels.run_ssc25d` workload (``q^2 c``
    ranks); ``options`` as :func:`signature_for`."""
    return signature_for("ssc25d", kernel_spec("ssc25d").mesh_shape(q, c), n,
                         **options)
