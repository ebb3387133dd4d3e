"""The traced run: spans around every op and a profiler bucketed by layer.

Spans are recorded from the benchmark's own files only (run -> workload ->
op); what happens *inside* an op is attributed by a ``cProfile`` profile
whose entries are bucketed by source file into this repo's modules.  The
in-program scoped counters of ROADMAP item 5 replace the profiler later
and must reproduce these shares.
"""

from __future__ import annotations

import cProfile
import os
import threading
import time
import uuid

from perfbench.metrics import LAYERS

#: Path fragment under ``repro/`` -> layer, first match wins.
_REPRO_RULES = (
    ("sim/engine.py", "sim.engine"),
    ("sim/process.py", "sim.process"),
    ("sim/replay.py", "sim.replay"),
    ("sim/trace.py", "sim.trace"),
    ("sim/faults.py", "sim.faults"),
    ("netmodel/analytic.py", "netmodel.analytic"),
    ("netmodel/", "netmodel.fabric"),       # fabric + its params/topology
    ("mpi/collectives/", "mpi.collectives"),
    ("mpi/transport.py", "mpi.transport"),
    ("mpi/progress.py", "mpi.transport"),
    ("mpi/requests.py", "mpi.transport"),
    ("mpi/", "mpi.comm"),                   # comm, world, gating
    ("dense/", "dense"),
    ("kernels/", "kernels"),
    ("solvers/", "apps"),
    ("particles/", "apps"),
    ("purify/", "apps"),
    ("tune/service.py", "tune.service"),
    ("tune/db.py", "tune.service"),
    ("tune/graphstore.py", "tune.service"),
    ("tune/", "tune.search"),
    ("analysis/", "analysis"),
    ("analytics/", "analytics"),
)

_REPRO_MARK = os.sep + "repro" + os.sep
_NUMPY_MARK = os.sep + "numpy" + os.sep


def layer_of_file(filename: str) -> str:
    """Layer owning a Python source file (``other`` for everything else)."""
    idx = filename.rfind(_REPRO_MARK)
    if idx >= 0:
        rel = filename[idx + len(_REPRO_MARK):].replace(os.sep, "/")
        for fragment, layer in _REPRO_RULES:
            if rel.startswith(fragment):
                return layer
        return "other"                      # bench/, util/, package inits
    if _NUMPY_MARK in filename:
        return "numpy"
    return "other"


#: ``(path fragment, function)`` whose self time belongs to another layer.
#: ``RankEnv.gemm`` is the one place the kernels multiply real matrices, and
#: it does so with the ``@`` operator, which no profiler reports as a call:
#: its self time *is* the numpy GEMM.
_FUNCTION_RULES = {("mpi/world.py", "gemm"): "numpy"}


def layer_of_code(code) -> str:
    for (fragment, name), layer in _FUNCTION_RULES.items():
        if code.co_name == name and code.co_filename.replace(
                os.sep, "/").endswith("repro/" + fragment):
            return layer
    return layer_of_file(code.co_filename)


class LayerProfile:
    """Accumulates self time and call counts per layer across ops.

    C functions are not profiled as calls of their own (``builtins=False``,
    which also trims the overhead from 2.8x to 2.4x): their time stays in
    the self time of the Python function that called them, i.e. with the
    layer that chose to call them.  ``cProfile`` sees one thread; ops that
    start client threads wrap the thread body with :meth:`wrap_thread`.
    """

    def __init__(self) -> None:
        self._main = cProfile.Profile(builtins=False)
        self._extra: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def enable(self) -> None:
        self._main.enable()

    def disable(self) -> None:
        self._main.disable()

    def wrap_thread(self, fn):
        def body(*args, **kwargs):
            prof = cProfile.Profile(builtins=False)
            prof.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                prof.disable()
                with self._lock:
                    self._extra.append(prof)
        return body

    def by_layer(self) -> tuple[dict[str, float], dict[str, int]]:
        """``(self seconds, calls)`` per layer, without the ``other`` remainder."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for prof in [self._main, *self._extra]:
            for entry in prof.getstats():
                layer = layer_of_code(entry.code)
                self_s[layer] += entry.inlinetime
                calls[layer] += entry.callcount
        return self_s, calls


class Spans:
    """In-memory spans with one run id, written out when the run ends."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.records: list[dict] = []

    def open(self, name: str, kind: str, parent: int | None) -> int:
        self.records.append({
            "run": self.run_id, "id": len(self.records), "parent": parent,
            "name": name, "kind": kind, "start": time.perf_counter(),
            "end": None,
        })
        return len(self.records) - 1

    def close(self, span_id: int) -> None:
        self.records[span_id]["end"] = time.perf_counter()
