"""Persistent event-graph storage: replay reuse across processes.

The record/replay machinery re-scores a shortlist without re-simulating —
but only within one process, because the recorded graphs live in an
in-memory ``graph_cache``.  A :class:`GraphStore` persists each
scored candidate's graph (:func:`repro.sim.replay.dump_recording` format)
next to the tuning database, keyed by the signature's **workload key** (the
db key minus the fabric hash — reuse across fabric constants is the whole
point, and compatibility is the recording's own check).  A fresh process
warm-starting a search loads the workload's graphs once and scores its
shortlist through :func:`repro.sim.replay.replay` instead of the simulator.

Layout: one JSON file per workload under ``<root>/``, named by a truncated
SHA-256 of the workload key (keys contain ``:`` and arbitrary placement
strings — hashing keeps filenames portable).  Each file carries the
workload key in clear for inspection::

    {"schema": 3, "workload": "ssc:n64:r8:m2x2x2:ppn1:block",
     "graphs": {"<candidate key>": {...to_jsonable()...}}}

written compactly (a graph is a few long number arrays; indenting them
would put one number per line and force the pure-Python JSON encoder).

Writes are atomic (write-to-temp + ``os.replace``) so concurrent processes
sharing one store never observe a torn file; last-writer-wins is safe
because a workload's graphs are a pure function of the workload (any writer
writes equivalent bytes for the candidates it scored).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

from repro.sim.replay import GraphRecorder, ReplayInvalid, load_recording

#: On-disk schema of a per-workload graph file.  v3 holds
#: :data:`repro.sim.replay.DUMP_SCHEMA` 4 recordings (FIFO submissions as
#: task nodes); a v1 or v2 file is one whole-file miss.
GRAPHSTORE_SCHEMA = 3

#: Filename stem length (hex chars of the workload-key SHA-256).
_STEM_LEN = 16


class GraphStore:
    """One directory of per-workload recorded-graph files."""

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)

    @classmethod
    def for_db(cls, db_path: str | os.PathLike) -> "GraphStore":
        """The conventional store location for a tuning db: ``<db>.graphs/``."""
        return cls(pathlib.Path(db_path).with_name(
            pathlib.Path(db_path).name + ".graphs"))

    def path_for(self, workload_key: str) -> pathlib.Path:
        stem = hashlib.sha256(workload_key.encode()).hexdigest()[:_STEM_LEN]
        return self.root / f"{stem}.json"

    # -- load ---------------------------------------------------------------

    def load(self, workload_key: str) -> dict[str, GraphRecorder]:
        """All persisted graphs for ``workload_key``: candidate key -> recording.

        Missing, torn or schema-mismatched files load as empty — a graph
        store is a cache, never a source of truth; the search falls back to
        simulation and re-records.
        """
        path = self.path_for(workload_key)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {}
        if (doc.get("schema") != GRAPHSTORE_SCHEMA
                or doc.get("workload") != workload_key):
            return {}
        graphs: dict[str, GraphRecorder] = {}
        for cand_key, jsonable in doc.get("graphs", {}).items():
            try:
                graphs[cand_key] = load_recording(jsonable)
            except (ReplayInvalid, KeyError, TypeError, ValueError):
                continue  # one bad graph must not poison the rest
        return graphs

    # -- save ---------------------------------------------------------------

    def save(self, workload_key: str,
             graphs: dict[str, GraphRecorder]) -> pathlib.Path:
        """Persist ``graphs`` (merged over any graphs already on disk)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(workload_key)
        merged: dict[str, dict] = {}
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if (doc.get("schema") == GRAPHSTORE_SCHEMA
                    and doc.get("workload") == workload_key):
                merged.update(doc.get("graphs", {}))
        except (OSError, json.JSONDecodeError):
            pass
        for cand_key, rec in graphs.items():
            if rec.valid:
                merged[cand_key] = rec.to_jsonable()
        doc = {
            "schema": GRAPHSTORE_SCHEMA,
            "workload": workload_key,
            "graphs": {k: merged[k] for k in sorted(merged)},
        }
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        with open(tmp, "w") as fh:
            fh.write(json.dumps(doc, default=repr, sort_keys=True))
            fh.write("\n")
        os.replace(tmp, path)
        return path
