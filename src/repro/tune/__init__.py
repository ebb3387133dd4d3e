"""repro.tune — autotuning: pick N_DUP, PPN, 2.5D replication and variant.

The paper fixes its configuration knobs by hand-run sweeps (Tables II-V:
``N_DUP = 4``, PPN per machine, 2.5D ``c`` per node count).  This subsystem
automates that choice per workload:

* :mod:`~repro.tune.signature` — the :class:`WorkloadSignature` keying every
  decision (kernel, n, mesh, ranks, PPN, placement, fabric-constant hash);
* :mod:`~repro.tune.validity` — the configuration rules shared with the
  kernels, so invalid candidates never reach the simulator;
* :mod:`~repro.tune.candidates` — the valid-configuration generator;
* :mod:`~repro.tune.search` — the two-stage search: analytic alpha-beta
  models prune, the discrete-event simulator scores the shortlist exactly,
  with incumbent-deadline early termination;
* :mod:`~repro.tune.db` — the persistent, versioned, byte-deterministic
  tuning database with warm-start lookup;
* :mod:`~repro.tune.tuner` — the policy front-end (``"auto"`` /
  ``"model-only"`` / ``"exhaustive"`` / ``"db-only"``) behind
  ``run_ssc(..., tune="auto")`` and ``python -m repro.tune``;
* :mod:`~repro.tune.graphstore` — persisted recorded event graphs, so a
  fresh process replays shortlist scoring instead of re-simulating;
* :mod:`~repro.tune.service` — tuning as a shared resource: the concurrent
  in-process :class:`TuningService` (record cache, request coalescing,
  interpolated warm starts, stale-while-revalidate re-tuning).

This ``__init__`` imports only the kernel-free layers eagerly; the
:class:`Tuner` and the search (which import the kernels) load lazily, so the
kernels themselves can depend on the validity rules, :class:`Candidate` and
the signatures without a cycle.  Per-kernel knowledge lives in the kernels'
:class:`~repro.kernels.driver.KernelSpec` registry, resolved on first use
(:func:`kernel_spec`).
"""

from repro.tune.candidates import (
    Candidate,
    apply_collective,
    effective_params,
    enumerate_candidates,
    n_dup_choices,
    paper_default_candidate,
)
from repro.tune.db import (
    DB_SCHEMA,
    TraceEntry,
    TuningDB,
    TuningRecord,
)
from repro.tune.signature import (
    WorkloadSignature,
    fabric_hash,
    kernel_spec,
    signature_for,
    signature_for_ssc,
    signature_for_ssc25d,
    signature_for_summa,
)
from repro.tune.validity import (
    min_block_elems,
    validate_ssc25d_config,
    validate_ssc_config,
    validate_summa_config,
)

#: Names resolved lazily (PEP 562) because their modules import the kernels.
_LAZY = {
    "Tuner": "repro.tune.tuner",
    "TuningPolicy": "repro.tune.tuner",
    "TUNING_POLICIES": "repro.tune.tuner",
    "check_policy": "repro.tune.tuner",
    "interpolation_seeds": "repro.tune.tuner",
    "search": "repro.tune.search",
    "model_time": "repro.tune.search",
    "simulate_candidate": "repro.tune.search",
    "SearchOutcome": "repro.tune.search",
    "GraphStore": "repro.tune.graphstore",
    "TuningService": "repro.tune.service",
    "tune_serial": "repro.tune.service",
    "find_neighbor": "repro.tune.service",
    "degraded_params": "repro.tune.service",
    "INTERPOLATION_REL_TOL": "repro.tune.service",
}

__all__ = [
    # signature
    "WorkloadSignature", "fabric_hash", "kernel_spec", "signature_for",
    "signature_for_ssc", "signature_for_ssc25d", "signature_for_summa",
    # validity
    "min_block_elems", "validate_ssc_config", "validate_ssc25d_config",
    "validate_summa_config",
    # candidates
    "Candidate", "enumerate_candidates", "paper_default_candidate",
    "apply_collective", "effective_params", "n_dup_choices",
    # db
    "TuningDB", "TuningRecord", "TraceEntry", "DB_SCHEMA",
    # lazy: tuner + search + service + graphstore
    *sorted(_LAZY),
]


def __getattr__(name: str):
    """Resolve the tuner/search layer on first touch (kernel-import cycle)."""
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.tune' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target), name)
    globals()[name] = value
    return value
