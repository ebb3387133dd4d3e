"""CLI: ``python -m repro.analytics {timeline,overlap,calibrate}``.

``timeline``
    Run one workload with tracing and print the per-(link, channel)
    utilization table: flows, bytes, busy time, utilization, largest idle
    gap and the per-link overlap fractions, plus the last-active link.

``overlap``
    Same run, reduced to the run-level :class:`OverlapReport`: comm-comm
    and comm-compute overlap fractions, serialization score, per-rank
    post/wait/compute breakdown.

``calibrate``
    Default mode runs the synthetic recovery loop (inject perturbed
    fabric constants, fit them back by replay re-pricing) and reports the
    fitted constants, residuals and recovery error; ``--check`` addition-
    ally fails (exit 1) if recovery exceeds ``--tolerance``.  ``--drift``
    runs the analytic-vs-simulated drift gate over the pinned quick
    workloads instead.  ``--out PATH`` writes the fitted constants (or
    drift rows) as a JSON artifact.

Both workload subcommands share ``--workload {ssc,summa}`` plus shape
flags; every subcommand accepts ``--format {text,json}``.  Exit 0 on
success, 1 on a failed gate, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys


def _presets() -> dict:
    """``workload -> (runner, options)``: what ``timeline``/``overlap`` trace
    unless a flag overrides it — an overlapped variant of each kernel at a
    size that shows the overlap."""
    from repro import run_ssc, run_ssc25d, run_summa

    return {
        "ssc": (run_ssc, dict(algorithm="optimized", n=480, n_dup=2)),
        "ssc25d": (run_ssc25d, dict(n=480, n_dup=2)),
        "summa": (run_summa, dict(algorithm="streaming", n=1024)),
    }


def _add_workload_options(p: argparse.ArgumentParser) -> None:
    from repro.kernels import KERNELS

    p.add_argument("--workload", choices=sorted(KERNELS), default="summa",
                   help="kernel to run under tracing (default: summa)")
    p.add_argument("--algorithm", default=None,
                   help="variant: ssc original/baseline/optimized, summa "
                        "plain/streaming/colored (defaults: optimized, "
                        "streaming)")
    p.add_argument("--p", type=int, default=4,
                   help="mesh side (q for ssc25d; default 4)")
    p.add_argument("--c", type=int, default=2,
                   help="2.5D replication factor (ssc25d; default 2)")
    p.add_argument("--n", type=int, default=None,
                   help="matrix dimension (defaults: ssc 480, summa 1024)")
    p.add_argument("--n-dup", type=int, default=None, dest="n_dup",
                   help="SSC pipeline duplicates (default 2)")
    p.add_argument("--colors", type=int, default=None,
                   help="colored-SUMMA lane count (default 2)")
    p.add_argument("--depth", type=int, default=None,
                   help="pipelined-SUMMA window depth (default 2)")


def _add_format_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")


def _run_workload(args):
    """Run the selected workload with tracing; return its OverlapReport."""
    from repro.analytics.overlap import overlap_report_for_world
    from repro.kernels import KERNELS

    runner, options = _presets()[args.workload]
    flags = {f: getattr(args, f)
             for f in ("algorithm", "n", "n_dup", "colors", "depth")}
    options.update({f: v for f, v in flags.items() if v is not None})
    shape = (args.p, args.c)[:len(KERNELS[args.workload].shape_flags)]
    try:
        res = runner(*shape, options.pop("n"), trace=True, **options)
    except TypeError as exc:  # a knob flag this kernel's runner lacks
        raise ValueError(f"--workload {args.workload}: {exc}") from None
    return overlap_report_for_world(res.world)


def _print_timeline(report) -> None:
    print(f"{'link':24s} {'flows':>6s} {'MB':>9s} {'busy(ms)':>9s} "
          f"{'util':>6s} {'gap(us)':>8s} {'ov2':>6s} {'multi-op':>8s}")
    for label, tl in sorted(report.links.items()):
        print(f"{label:24s} {tl.flows:6d} {tl.nbytes / 1e6:9.2f} "
              f"{tl.busy_time * 1e3:9.3f} {tl.utilization:6.3f} "
              f"{tl.largest_gap * 1e6:8.1f} {tl.flow_overlap_fraction:6.3f} "
              f"{tl.comm_comm_overlap_fraction:8.3f}")
    print(f"last active: {report.last_active_link} "
          f"at {report.last_active_time * 1e3:.3f} ms")


def _print_overlap(report) -> None:
    print(f"horizon             {report.horizon * 1e3:10.3f} ms")
    print(f"comm busy           {report.comm_busy_time * 1e3:10.3f} ms")
    print(f"compute busy        {report.compute_busy_time * 1e3:10.3f} ms")
    print(f"comm-comm overlap   {report.comm_comm_overlap_fraction:10.3f}")
    print(f"flow overlap        {report.flow_overlap_fraction:10.3f}")
    print(f"comm-compute overlap{report.comm_compute_overlap_fraction:10.3f}")
    print(f"serialization score {report.serialization_score:10.3f}")
    print(f"flows               {report.total_flows:10d}")
    for rank, kinds in report.breakdown.items():
        parts = " ".join(f"{k}={v * 1e3:.3f}ms"
                         for k, v in sorted(kinds.items()) if v > 0.0)
        print(f"  r{rank}: {parts}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analytics",
        description="Link-utilization timelines, overlap-fraction metrics "
                    "and replay-backed model calibration.",
    )
    sub = parser.add_subparsers(dest="command")

    tl_p = sub.add_parser("timeline",
                          help="per-link utilization table of one traced run")
    _add_workload_options(tl_p)
    _add_format_option(tl_p)

    ov_p = sub.add_parser("overlap",
                          help="overlap-fraction report of one traced run")
    _add_workload_options(ov_p)
    _add_format_option(ov_p)

    cal_p = sub.add_parser(
        "calibrate",
        help="synthetic constant-recovery fit / analytic drift gate")
    cal_p.add_argument("--drift", action="store_true",
                       help="run the analytic-vs-simulated drift gate "
                            "instead of the synthetic recovery loop")
    cal_p.add_argument("--check", action="store_true",
                       help="exit 1 when recovery exceeds --tolerance "
                            "(or any drift band is violated)")
    cal_p.add_argument("--tolerance", type=float, default=0.05,
                       help="max allowed recovery relative error with "
                            "--check (default 0.05)")
    cal_p.add_argument("--out", default=None,
                       help="write the JSON artifact (fitted constants or "
                            "drift rows) to this path")
    _add_format_option(cal_p)

    args = parser.parse_args(argv)

    if args.command in ("timeline", "overlap"):
        try:
            report = _run_workload(args)
        except ValueError as exc:
            print(f"repro.analytics {args.command}: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            payload = report.to_jsonable()
            if args.command == "timeline":
                payload = {"links": payload["links"],
                           "last_active_link": payload["last_active_link"],
                           "last_active_time": payload["last_active_time"]}
            print(json.dumps(payload, indent=1, sort_keys=True))
        elif args.command == "timeline":
            _print_timeline(report)
        else:
            _print_overlap(report)
        return 0

    if args.command == "calibrate":
        from repro.analytics.calibrate import calibrate_synthetic, model_drift

        if args.drift:
            rows = model_drift()
            ok = all(r["ok"] for r in rows)
            payload = {"cases": rows, "ok": ok}
            if args.format == "json":
                print(json.dumps(payload, indent=1, sort_keys=True))
            else:
                for r in rows:
                    verdict = "ok" if r["ok"] else "FAIL"
                    print(f"{r['name']:18s} sim={r['simulated'] * 1e3:9.3f}ms "
                          f"analytic={r['analytic'] * 1e3:9.3f}ms "
                          f"drift={r['drift']:+7.3f} band={r['band']:.2f} "
                          f"{verdict}")
                print(f"drift gate: {'ok' if ok else 'FAILED'}")
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(payload, fh, indent=1, sort_keys=True)
            return 0 if (ok or not args.check) else 1

        result = calibrate_synthetic()
        ok = result["max_recovery_rel_error"] <= args.tolerance
        if args.format == "json":
            print(json.dumps(result, indent=1, sort_keys=True))
        else:
            for f in result["fields"]:
                print(f"{f:24s} true={result['true'][f]:.6g} "
                      f"fitted={result['fitted'][f]:.6g} "
                      f"rel err={result['recovery_rel_error'][f]:.3g}")
            fit = result["fit"]
            print(f"replays={fit['replays']} iterations={fit['iterations']} "
                  f"converged={fit['converged']} "
                  f"sim runs={result['sim_runs']} (observations only)")
            print(f"recovery: max rel err "
                  f"{result['max_recovery_rel_error']:.3g} "
                  f"({'ok' if ok else 'FAILED'} at tol {args.tolerance})")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
        return 0 if (ok or not args.check) else 1

    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
