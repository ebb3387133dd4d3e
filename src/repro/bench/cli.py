"""Command-line entry point: ``python -m repro.bench`` / ``repro-bench``.

Examples::

    python -m repro.bench --list
    python -m repro.bench table1 table3
    python -m repro.bench all --quick
    python -m repro.bench fig5 --csv out/
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
import traceback

from repro.bench.harness import EXPERIMENTS, load_experiment, run_experiment
from repro.util import MB
from repro.util.ascii import hbar_chart


def render_ascii(name: str, out) -> str:
    """ASCII bar charts for the bandwidth-style experiments (fig3/fig5)."""
    if name == "fig3":
        sizes = sorted({s for s, _p in out.values})
        lines = []
        for ppn in (1, 2, 4, 8):
            labels = [f"{s} B" for s in sizes]
            vals = [out.values[(s, ppn)] / MB for s in sizes]
            lines.append(f"PPN={ppn} (MB/s)\n" + hbar_chart(
                labels, vals, max_value=12_000))
        return "\n".join(lines)
    if name == "fig5":
        sizes = sorted({s for (_o, _c, s) in out.values})
        big = sizes[-1]
        lines = []
        for op in ("bcast", "reduce"):
            cases = ["blocking", "nonblocking", "ppn"]
            vals = [out.values[(op, c, big)] / MB for c in cases]
            lines.append(f"{op} @ {big} B (MB/s)\n" + hbar_chart(
                cases, vals, max_value=12_000))
        return "\n".join(lines)
    return ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables and figures of Huang & Chow (IPDPS 2019).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (see --list), or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--quick", action="store_true", help="shrink sweeps for a fast smoke run"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="also run each experiment's qualitative reproduction checks",
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="write each experiment's tables as CSV files into DIR",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write a combined markdown report of the selected experiments",
    )
    parser.add_argument(
        "--ascii", action="store_true",
        help="additionally render bandwidth experiments as ASCII bar charts",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap each experiment in cProfile and print the top-20 "
             "cumulative hot spots",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run sweep-style experiments across N worker processes "
             "(output is byte-identical to the serial run)",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        width = max(len(k) for k in EXPERIMENTS)
        for key, (_mod, desc) in EXPERIMENTS.items():
            print(f"  {key.ljust(width)}  {desc}")
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    if args.report:
        from repro.bench.report import generate_report

        markdown, failures = generate_report(names, quick=args.quick,
                                             check=True)
        pathlib.Path(args.report).write_text(markdown)
        print(f"wrote {args.report}")
        if failures:
            for name, msg in failures:
                print(f"[{name}] checks FAILED: {msg}", file=sys.stderr)
            return 1
        return 0

    failures = []
    for name in names:
        t0 = time.time()
        if args.profile:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            out = run_experiment(name, quick=args.quick, jobs=args.jobs)
            profiler.disable()
            stream = io.StringIO()
            pstats.Stats(profiler, stream=stream).sort_stats(
                "cumulative").print_stats(20)
            print(f"[{name}] cProfile top-20 by cumulative time:")
            print(stream.getvalue())
        else:
            out = run_experiment(name, quick=args.quick, jobs=args.jobs)
        wall = time.time() - t0
        print(out.render())
        if args.ascii:
            chart = render_ascii(name, out)
            if chart:
                print(chart)
        print(f"[{name}] completed in {wall:.1f}s wall time")
        if args.csv:
            directory = pathlib.Path(args.csv)
            directory.mkdir(parents=True, exist_ok=True)
            for i, table in enumerate(out.tables):
                path = directory / f"{name}_{i}.csv"
                path.write_text(table.to_csv())
                print(f"[{name}] wrote {path}")
        if args.check:
            try:
                load_experiment(name).check(out)
                print(f"[{name}] qualitative checks PASSED")
            except AssertionError as exc:
                reason = str(exc)
                if not reason:  # a bare assert: name it by its source line
                    frame = traceback.extract_tb(exc.__traceback__)[-1]
                    reason = f"{frame.filename}:{frame.lineno}: {frame.line}"
                failures.append((name, reason))
                print(f"[{name}] qualitative checks FAILED: {reason}")
        print()
    if failures:
        print(f"{len(failures)} experiment(s) failed checks: "
              f"{', '.join(n for n, _ in failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
