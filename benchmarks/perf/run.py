#!/usr/bin/env python3
"""The repo benchmark: ``python3 benchmarks/perf/run.py [--workload NAME]
[--seed N] [--seconds N] [--trace] [--out DIR]``.

The parent process never imports the program under test.  It pins BLAS to
one thread, then runs each workload in fresh child interpreters, one at a
time: a few set-up-only children (so ``setup_s`` is a median, not one
sample) and one measuring child.  The last line of stdout is one JSON
object; everything above it is the human-readable table.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from perfbench import metrics  # noqa: E402  (needs HERE on the path)

BLAS_THREADS = 1
#: glibc malloc pins for the children: serve large blocks from the heap and
#: never trim it, so numpy temporaries are recycled instead of being mmap'd
#: and page-faulted on every call.  On a VM a minor fault costs 2-20 us
#: depending on host memory state, which made real-mode ops swing by 2x.
MALLOC_PINS = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30),
               "MALLOC_TRIM_THRESHOLD_": str(1 << 33)}
SETUP_SAMPLES = 5       # set-up-only children + the measuring child
PINS = HERE / "pins.json"


# ---------------------------------------------------------------------------
# child: one fresh interpreter = one run of one workload
# ---------------------------------------------------------------------------

def _reference_speeds() -> dict:
    """Machine yardsticks for normalising trajectories across hosts."""
    import numpy as np
    from repro.sim import Engine

    n = 100_000
    eng = Engine()
    left = [n]

    def tick():
        if left[0] > 0:
            left[0] -= 1
            eng.call_after(1e-6, tick)
    tick()
    t0 = time.perf_counter()
    eng.run()
    loop_eps = n / (time.perf_counter() - t0)

    size, reps = 512, 5
    a = np.ones((size, size))
    a @ a
    t0 = time.perf_counter()
    for _ in range(reps):
        a @ a
    gflops = reps * 2 * size**3 / (time.perf_counter() - t0) / 1e9
    return {"bench.ref_loop_eps": loop_eps, "bench.ref_gemm_gflops": gflops}


def _median_pass(passes: list):
    """Collapse repeated untraced passes: timings by median, counts exact."""
    from perfbench import harness

    first = passes[0]
    for other in passes[1:]:
        if other.counts != first.counts or other.digests != first.digests:
            raise SystemExit("perfbench: two passes of one script disagree on "
                             "an exact count; the program is not deterministic")
    e2e = [harness.end_to_end(p) for p in passes]
    merged = {k: statistics.median(e[k] for e in e2e) for k in e2e[0]}
    return first, merged


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _child(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()      # unless another child still uses it
        except OSError:
            pass


def _child(args, workdir: pathlib.Path) -> int:
    from perfbench import harness, layers

    workload = importlib.import_module(f"perfbench.workloads.{args.workload}")
    fx = workload.fixtures(args.seed, args.smoke, str(workdir))
    fx["corrupt"] = args.corrupt
    workload.warmup(fx)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Smoke scripts are unpinned; --write-pins is what makes the pins.
    pins = (None if args.smoke or args.write_pins
            else json.loads(PINS.read_text())[args.workload])
    passes = []
    started = time.monotonic()
    while True:
        script = workload.script(fx)
        executed = [[op.name, op.kind] for op in script.ops]
        if pins is not None and executed != pins["ops"]:
            print(f"perfbench: {args.workload}'s script differs from "
                  f"pins.json; refusing to report (rerun --write-pins if the "
                  f"benchmark itself changed)", file=sys.stderr)
            return 2
        t0 = time.monotonic()
        passes.append(harness.run_pass(script))
        last = time.monotonic() - t0
        # As many whole passes as fit the budget, at least one.
        if args.write_pins or time.monotonic() - started + last > args.seconds:
            break
    result, e2e = _median_pass(passes)
    e2e["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    e2e["setup_s"] = setup_s
    drift = 0 if pins is None else sum(
        result.digests.get(name) != want
        for name, want in pins["digests"].items())

    doc = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "passes": len(passes), "attempted": result.attempted,
        "failures": result.failures,
        "timed_ops": len(result.samples),
        "end_to_end": e2e,
        "ops": [{"name": n, "kind": k, "wall_s": w, "cpu_s": c}
                for n, k, w, c in result.samples],
        "digests": result.digests,
        "digest_drift": drift,
        "script": executed,
        "pinned": {op.name: result.digests[op.name] for op in script.ops
                   if op.pinned and op.name in result.digests},
        "refs": _reference_speeds(),
    }
    if args.trace:
        profile, spans = layers.LayerProfile(), layers.Spans()
        run_span = spans.open("run", "run", None)
        wl_span = spans.open(args.workload, "workload", run_span)
        fx["wrap_thread"] = profile.wrap_thread
        traced = harness.run_pass(workload.script(fx), profile=profile,
                                  spans=spans, parent=wl_span)
        spans.close(wl_span)
        spans.close(run_span)
        doc["per_layer"] = harness.per_layer_metrics(
            result, traced, profile, drift, doc["refs"])
        doc["traced_failures"] = traced.failures
        doc["spans"] = spans.records
    print(json.dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn children, print the table and the result line
# ---------------------------------------------------------------------------

def _environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS}


def _spawn(args, workload: str, extra: list) -> dict:
    env = dict(os.environ, **MALLOC_PINS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic()), *extra]
    for flag in ("smoke", "corrupt", "write_pins"):
        if getattr(args, flag):
            cmd.append("--" + flag.replace("_", "-"))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          cwd=str(ROOT))
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(args, workload: str) -> dict:
    # setup_s is an end-to-end metric: a traced run does not report it.
    extra = 0 if args.trace or args.write_pins else SETUP_SAMPLES - 1
    setups = [_spawn(args, workload, ["--setup-only"])["setup_s"]
              for _ in range(extra)]
    doc = _spawn(args, workload, [])
    setups.append(doc["end_to_end"]["setup_s"])
    doc["setup_samples"] = setups
    doc["end_to_end"]["setup_s"] = statistics.median(setups)
    return doc


def _print_table(doc: dict) -> None:
    print(f"== {doc['workload']}  seed={doc['seed']}  passes={doc['passes']}  "
          f"ops={doc['attempted']} ({doc['timed_ops']} timed)")
    failed = len(doc["failures"])
    for name, unit, _bound in metrics.END_TO_END:
        print(f"  {name:<34} {doc['end_to_end'][name]:>16.6f} {unit}")
    name, unit = metrics.FAIL_FRAC
    print(f"  {name:<34} {failed / doc['attempted']:>16.6f} {unit}"
          f"   ({failed} of {doc['attempted']} ops)")
    print(f"  (op_p50_ms / op_p80_ms over {doc['timed_ops']} samples; setup_s "
          f"median of {len(doc['setup_samples'])})")
    for name, unit, _better in metrics.per_layer() if "per_layer" in doc else ():
        value = doc["per_layer"][name]
        print(f"  {name:<34} {value:>16.6f} {unit}")
    if doc["digest_drift"]:
        print(f"  note: {doc['digest_drift']} pinned op(s) changed their "
              f"virtual-time digest (simulated time moved)")
    for name, reason in doc["failures"] + doc.get("traced_failures", []):
        print(f"  FAILED {name}:\n{reason}", file=sys.stderr)


def _write_pins(docs: dict) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for workload, doc in docs.items():
        kinds = sorted({kind for _name, kind in doc["script"]})
        pins[workload] = {"op_count": len(doc["script"]), "kinds": kinds,
                          "ops": doc["script"], "digests": doc["pinned"]}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring budget: as many whole passes of the fixed "
                         "script as fit, at least one")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="add the traced pass and report the "
                                         "per-layer metrics")
    ap.add_argument("--out", help="directory for result files (env block, "
                                  "per-op samples, spans)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny script, <= 2 ops per kind (for the tests)")
    ap.add_argument("--corrupt", action="store_true",
                    help="test hook: corrupt the numpy references")
    ap.add_argument("--write-pins", action="store_true",
                    help="regenerate pins.json from the current scripts")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: src/repro not found next to benchmarks/; nothing to "
              "measure", file=sys.stderr)
        return 3
    workloads = [args.workload] if args.workload else list(metrics.WORKLOADS)
    env = _environment()
    docs = {}
    for workload in workloads:          # sequentially, never concurrently
        doc = docs[workload] = run_workload(args, workload)
        doc["env"] = {**env, **doc.pop("refs")}
        _print_table(doc)
        if args.out:
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            tag = "-trace" if args.trace else ""
            (out / f"{workload}-seed{args.seed}{tag}.json").write_text(
                json.dumps(doc, indent=1) + "\n")

    if args.write_pins:
        _write_pins(docs)
    names = metrics.per_layer() if args.trace else metrics.END_TO_END
    section = "per_layer" if args.trace else "end_to_end"
    line = {}
    for workload, doc in docs.items():
        prefix = "" if args.workload else workload + "."
        for name, unit, _ in names:
            line[prefix + name] = {"value": doc[section][name], "unit": unit}
    failed = sum(len(d["failures"]) + len(d.get("traced_failures", ()))
                 for d in docs.values())
    # A traced run attempts every op twice: untraced pass, then traced pass.
    attempted = sum(d["attempted"] * (2 if args.trace else 1)
                    for d in docs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": line}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
