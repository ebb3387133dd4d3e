#!/usr/bin/env python3
"""Reachability audit: the ``src/repro`` functions nothing documented enters.

Run from the repo root (stdlib only; about 7 minutes on a 2-core box)::

    python3 benchmarks/gates/reachability.py

Not a pytest module (no ``test_`` prefix), so ``pytest benchmarks/gates``
does not collect it.  It writes a temporary ``sitecustomize.py`` and puts
it first on ``PYTHONPATH``; every interpreter started under it, children
included, installs ``sys.setprofile`` and ``threading.setprofile`` and at
exit dumps the ``src/repro`` code objects it entered.  It then drives what
a user runs (:func:`drives`):

* ``benchmarks/perf/run.py --workload W --seconds 0`` for the four
  workloads, untraced (a traced pass installs its own profiler, which
  replaces the hook);
* ``python -m repro.bench all --quick --check --ascii --csv`` (and
  ``--report`` on one experiment: it takes over the run);
* every ``python -m repro.*`` command documented in README.md and docs/
  (:data:`COMMANDS`; the audit fails if the docs name a subcommand the
  list does not run);
* every script in ``examples/``.

Tier-1 tests are deliberately not driven.  The report lists, per module,
each function none of those entered, with its line count (first decorator
to last line; functions nested in an unreached function are counted with
it) and the reason it stays: it is exported through an ``__all__``, it is
named in README.md or docs/, it is a dunder, or it has a line in
:data:`KEEP`.  The exit status is 1 when some unreached function has no
reason: delete it, or justify it in :data:`KEEP`.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PKG = SRC / "repro"

#: One small-input run of each documented ``python -m repro.*`` command
#: (README.md and docs/ name the same commands at paper scale).
COMMANDS = (
    ["-m", "repro.bench", "all", "--quick", "--check", "--ascii", "--csv",
     "{tmp}/csv"],
    ["-m", "repro.bench", "table4", "--quick", "--report",
     "{tmp}/report.md"],
    ["-m", "repro.bench", "--list"],
    ["-m", "repro.analysis", "lint", "src", "examples"],
    ["-m", "repro.analysis", "lint", "src", "examples", "--format", "json"],
    ["-m", "repro.analysis", "lint", "src", "examples", "--format", "sarif"],
    ["-m", "repro.analysis", "verify"],
    ["-m", "repro.analysis", "check-plans", "--kernel", "ssc", "--n", "64",
     "--p", "2"],
    ["-m", "repro.analysis", "check-plans", "--kernel", "ssc25d", "--n",
     "64", "--p", "2", "--c", "2"],
    ["-m", "repro.analysis", "check-plans", "--selftest"],
    ["-m", "repro.analysis", "check-plans", "--signature",
     "ssc:n64:r8:m2x2x2:ppn1:block:0"],
    ["-m", "repro.analytics", "calibrate", "--check"],
    ["-m", "repro.analytics", "calibrate", "--drift", "--check", "--format",
     "json"],
    ["-m", "repro.analytics", "overlap", "--workload", "ssc", "--p", "2",
     "--n", "96"],
    ["-m", "repro.analytics", "overlap", "--workload", "ssc", "--p", "2",
     "--n", "96", "--format", "json"],
    ["-m", "repro.analytics", "timeline", "--workload", "summa",
     "--algorithm", "colored", "--colors", "4"],
    ["-m", "repro.analytics", "timeline", "--workload", "summa",
     "--algorithm", "colored", "--colors", "4", "--format", "json"],
    ["-m", "repro.sim.replay", "--dump-ssc", "{tmp}/ssc_graph.json"],
    ["-m", "repro.tune", "search", "ssc", "--p", "2", "--n", "64", "--db",
     "{tmp}/tune_db.json", "--trace"],
    ["-m", "repro.tune", "search", "ssc25d", "--q", "2", "--c", "2", "--n",
     "64", "--policy", "exhaustive"],
    ["-m", "repro.tune", "show", "--db", "{tmp}/tune_db.json", "--format",
     "json"],
    ["-m", "repro.tune", "show", "--db", "{tmp}/tune_db.json"],
    ["-m", "repro.tune", "export", "--db", "{tmp}/tune_db.json", "--output",
     "{tmp}/copy.json"],
    ["-m", "repro.tune", "warm", "ssc", "--p", "2", "--n", "64", "--n", "67",
     "--db", "{tmp}/tune_db.json"],
)

_FINDING = "reports a finding; the shipped code and programs raise none"
_PUBLIC = "public method of an exported class; tier-1 tests pin it"
_RA106 = "RA106: only a deadlocked program reaches it"
_RA107 = "RA107: only waitany([]) reaches it"
_ADD_BATCH = ("multi-add rounds: no generator in algorithms.py emits one; "
              "hand-built tier-1 schedules pin it (deletion candidate)")

#: ``"module:qualname"`` -> why a function nothing above enters stays.
KEEP = {
    "repro.analysis.findings:Finding.title": _FINDING,
    "repro.analysis.findings:Finding.to_jsonable": _FINDING,
    "repro.analysis.findings:_sarif_location": _FINDING,
    "repro.analysis.lint:_FunctionLinter._site": _FINDING,
    "repro.analysis.lint:_FunctionLinter._emit": _FINDING,
    "repro.analysis.lint:_lint_determinism.emit": _FINDING,
    "repro.analysis.lint:lint_paths.sort_key": _FINDING,
    "repro.analysis.schedule:verify_cannon_shift_plans.emit": _FINDING,
    "repro.analysis.verifier:_active_verifiers": _RA107,
    "repro.analysis.verifier:note_empty_waitany": _RA107,
    "repro.analysis.verifier:CommVerifier.on_empty_waitany": _RA107,
    "repro.analysis.verifier:CommVerifier.on_envelope_collision":
        "RA105: only two user messages on one envelope reach it",
    "repro.analysis.verifier:CommVerifier._describe_pending": _RA106,
    "repro.analysis.verifier:CommVerifier._find_cycle": _RA106,
    "repro.analysis.verifier:CommVerifier.on_deadlock": _RA106,
    "repro.analysis.verifier:CommVerifier.errors": _FINDING,
    "repro.analysis.verifier:CommVerifier._now": _FINDING,
    "repro.analysis.verifier:CommVerifier._emit": _FINDING,
    "repro.analysis.verifier:CommVerifier._comm_name": _FINDING,
    "repro.analytics.calibrate:fit_fabric_constants.off_plateau":
        "only the bad seeds reach it (benchmarks/gates/test_fit_seeds.py)",
    "repro.dense.summa:SummaResult.algorithm":
        "result field beside the documented colors/depth",
    "repro.mpi.collectives.executor:ScheduleRunner._flush_add_batch":
        _ADD_BATCH,
    "repro.mpi.collectives.executor:ScheduleRunner._complete_many":
        _ADD_BATCH,
    "repro.mpi.collectives.plan:select_allgather":
        "selector of the documented CommView.allgather",
    "repro.mpi.collectives.plan:select_reduce_scatter":
        "selector of the documented CommView.reduce_scatter",
    "repro.mpi.comm:Comm.contains": "membership test of the documented "
                                    "Comm.split / Comm.sub",
    "repro.mpi.comm:CommView._reduce_scatter_result":
        "helper of the documented CommView.reduce_scatter",
    "repro.mpi.progress:ProgressEngine.idle_at": _PUBLIC,
    "repro.mpi.transport:Transport.pending_counts": _PUBLIC,
    "repro.netmodel.params:MachineParams.replace":
        "twin of the NetworkParams.replace the benchmark calls",
    "repro.netmodel.topology:Cluster.ranks_on_node": _PUBLIC,
    "repro.netmodel.topology:Cluster.max_ppn": _PUBLIC,
    "repro.netmodel.topology:Cluster.same_node": _PUBLIC,
    "repro.purify.mcweeny:mcweeny_initial_guess":
        "start of the exported mcweeny_purify_dense",
    "repro.sim.engine:Timer.when":
        "accessor of the handle Engine.call_at returns; tier-1 tests pin it",
    "repro.sim.engine:Engine.events_processed": _PUBLIC,
    "repro.sim.engine:Engine.heap_size": _PUBLIC,
    "repro.sim.engine:Engine.dead_entries": _PUBLIC,
    "repro.sim.engine:Engine.dead_entry_ratio": _PUBLIC,
    "repro.sim.engine:Engine.idle": _PUBLIC,
    "repro.sim.engine:Engine.timeout": _PUBLIC,
    "repro.sim.engine:Engine.peek": _PUBLIC,
    "repro.sim.faults:FaultPlan.degraded_nodes": _PUBLIC,
    "repro.sim.process:SimProcess._throw":
        "delivers Interrupt, the exported SimProcess.interrupt",
    "repro.sim.process:SimProcess._maybe_throw":
        "delivers Interrupt, the exported SimProcess.interrupt",
    "repro.sim.process:SimProcess.interrupt": _PUBLIC,
    "repro.sim.process:SimProcess._wait_all": "serves the exported AllOf",
    "repro.sim.process:SimProcess._wait_any": "serves the exported AnyOf",
    "repro.sim.process:run_processes":
        "runs bare generator programs; only tier-1 sim tests call it",
    "repro.sim.replay:GraphRecorder.invalidate":
        "only a recording that leaves the replay envelope reaches it",
    "repro.sim.replay:ReplayResult.flow_times":
        "field of the result replay() returns; tier-1 tests pin it",
    "repro.sim.trace:Trace.for_rank": _PUBLIC,
    "repro.sim.trace:Trace.by_label": _PUBLIC,
    "repro.sim.trace:Trace.total": _PUBLIC,
    "repro.sim.trace:Trace.ranks": _PUBLIC,
    "repro.sim.trace:Trace.horizon": _PUBLIC,
    "repro.sim.trace:Trace.to_jsonable":
        "serializes the golden-trace fixtures (tests/test_golden_trace.py)",
    "repro.sim.trace:Trace.records_from_jsonable":
        "loads the golden-trace fixtures (tests/test_golden_trace.py)",
    "repro.tune.service:_done_future":
        "a miss whose record commits while it waits for the service lock",
    "repro.util.ascii:series_chart":
        "line-chart twin of hbar_chart; only tier-1 tests call it "
        "(deletion candidate)",
    "repro.util.tables:Table.column": _PUBLIC,
}

_SITECUSTOMIZE = '''
import atexit, os, sys, threading

_OUT = {out!r}
_PKG = {pkg!r}
_seen = set()
_add = _seen.add


def _hook(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = sorted({{f"{{c.co_filename}}\\t{{c.co_firstlineno}}"
                    for c in list(_seen) if c.co_filename.startswith(_PKG)}})
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "a") as fh:
        fh.write("".join(row + "\\n" for row in rows))


atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def drives(tmp: str) -> list[list[str]]:
    """Every argv (after the interpreter) the audit runs, in order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [[str(ROOT / "benchmarks/perf/run.py"), "--workload", w["name"],
             "--seconds", "0"] for w in bench["workloads"]]
    runs += [[arg.format(tmp=tmp) for arg in cmd] for cmd in COMMANDS]
    runs += [[str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
    return runs


def _doc_text() -> str:
    paths = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    return "\n".join(p.read_text() for p in paths)


def undriven_doc_commands(docs: str) -> list[str]:
    """Documented ``python -m repro.X sub`` pairs no :data:`COMMANDS` runs."""
    driven = {(cmd[1], cmd[2]) for cmd in COMMANDS}
    documented = set(re.findall(r"python3? -m (repro(?:\.\w+)+) ([a-z-]+)",
                                docs))
    bench = {("repro.bench", sub) for mod, sub in documented
             if mod == "repro.bench"}
    return sorted(f"{mod} {sub}" for mod, sub in documented - bench - driven)


def drive(dumps: pathlib.Path) -> list[str]:
    """Run every drive under the hook; the ones that exited non-zero.

    A drive that fails still dumps what it entered, so it still counts.
    """
    with tempfile.TemporaryDirectory() as tmp:
        (pathlib.Path(tmp) / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(out=str(dumps), pkg=str(PKG) + os.sep))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [tmp, str(SRC),
                                     os.environ.get("PYTHONPATH")])))
        failed = []
        for argv in drives(tmp):
            print("reachability: python " + " ".join(argv), file=sys.stderr,
                  flush=True)
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                failed.append(f"exit {proc.returncode}: python "
                              + " ".join(argv))
    return failed


def reached(dumps: pathlib.Path) -> set[tuple[str, int]]:
    seen = set()
    for path in dumps.glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, first = line.split("\t")
            seen.add((filename, int(first)))
    return seen


class Function:
    __slots__ = ("module", "qualname", "filename", "first", "last",
                 "nested")

    def __init__(self, module, qualname, filename, node, nested):
        self.module = module
        self.qualname = qualname
        self.filename = filename
        self.first = min([node.lineno]
                         + [d.lineno for d in node.decorator_list])
        self.last = node.end_lineno
        self.nested = nested

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _module_name(path: pathlib.Path) -> str:
    rel = path.relative_to(SRC).with_suffix("")
    return ".".join(rel.parts[:-1] if rel.name == "__init__" else rel.parts)


def functions() -> list[Function]:
    """Every ``def`` under ``src/repro``; lambdas and comprehensions aside."""
    found = []

    def walk(node, module, filename, prefix, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, filename, prefix + child.name + ".",
                     nested)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = Function(module, prefix + child.name, filename, child,
                              nested)
                found.append(fn)
                walk(child, module, filename, fn.qualname + ".", True)
            else:
                walk(child, module, filename, prefix, nested)

    for path in sorted(PKG.rglob("*.py")):
        walk(ast.parse(path.read_text()), _module_name(path), str(path), "",
             False)
    return found


def exported() -> set[tuple[str, int]]:
    """``(filename, first line)`` of every function an ``__all__`` exports."""
    sys.path.insert(0, str(SRC))
    out = set()
    for path in sorted(PKG.rglob("*.py")):
        if path.stem == "__main__":
            continue
        mod = importlib.import_module(_module_name(path))
        for name in getattr(mod, "__all__", ()):
            code = getattr(getattr(mod, name), "__code__", None)
            if code is not None:
                out.add((code.co_filename, code.co_firstlineno))
    return out


def keep_reason(fn: Function, exports, docs: str) -> str | None:
    if fn.name.startswith("__") and fn.name.endswith("__"):
        return "dunder"
    if fn.key in KEEP:
        return KEEP[fn.key]
    if (fn.filename, fn.first) in exports:
        return "exported in __all__"
    if re.search(r"[`.]" + re.escape(fn.name) + r"\b", docs):
        return "named in README/docs"
    return None


def report(seen) -> int:
    docs = _doc_text()
    exports = exported()
    found = functions()
    unreached = []
    for fn in found:
        if (fn.filename, fn.first) in seen:
            continue
        if fn.nested and any(u.filename == fn.filename
                             and u.first <= fn.first <= u.last
                             for u in unreached):
            continue            # counted with its unreached enclosing def
        unreached.append(fn)
    total = sum(fn.lines for fn in found if not fn.nested)
    by_module = defaultdict(list)
    for fn in unreached:
        by_module[fn.module].append(fn)
    missing = 0
    missing_lines = 0
    for module in sorted(by_module):
        print(f"{module}")
        for fn in by_module[module]:
            reason = keep_reason(fn, exports, docs)
            if reason is None:
                missing += 1
                missing_lines += fn.lines
            print(f"  {fn.lines:5d}  {fn.qualname:<48} "
                  f"{reason or 'NO KEEP REASON'}")
    lines = sum(fn.lines for fn in unreached)
    print(f"unreached: {len(unreached)} function(s), {lines} line(s) of "
          f"{total} in function bodies; without a keep reason: "
          f"{missing} function(s), {missing_lines} line(s)")
    stale = sorted(set(KEEP) - {fn.key for fn in unreached})
    for key in stale:
        print(f"KEEP entry for a reached or missing function: {key}")
    undriven = undriven_doc_commands(docs)
    for cmd in undriven:
        print(f"documented command not driven: python -m {cmd}")
    return 1 if missing or stale or undriven else 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        dumps = pathlib.Path(tmp)
        failed = drive(dumps)
        status = report(reached(dumps))
    for line in failed:
        print(f"drive failed ({line})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
