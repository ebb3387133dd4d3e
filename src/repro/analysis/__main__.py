"""CLI: ``python -m repro.analysis {lint,verify,check-plans}``.

``lint PATH...``
    Static AST checks (RA2xx) over every ``.py`` file under the paths.
    Exit 0 when clean, 1 when findings exist, 2 on usage errors.

``verify``
    Run the verified-kernel suite (all six SymmSquareCube/2.5D programs
    plus the fault-injected run) under ``World(verify=True)`` and report
    any runtime findings (RA1xx).  Same exit-code convention.

``check-plans``
    Static schedule verification (RA3xx): prove every collective plan the
    table1/table2 quick workloads can execute deadlock-free, completely
    matched, and zero-copy sound — or restrict to one workload with
    ``--kernel``/``--n``/... or ``--signature``.  ``--selftest`` runs the
    built-in mutation fixtures instead (each must fail with its exact
    finding) plus a clean sweep of every library generator.

Every subcommand accepts ``--format {text,json,sarif}`` (``--json`` stays
as an alias for ``--format json``) and ``--fail-on {warning,error}``:
``warning`` (the default, matching the historical behavior) exits 1 on any
finding, ``error`` ignores warning-severity findings for the exit code.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.findings import render_json, render_sarif, render_text


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default=None, help="output format (default: text)")
    p.add_argument("--json", action="store_true",
                   help="alias for --format json")
    p.add_argument("--fail-on", choices=("warning", "error"),
                   default="warning", dest="fail_on",
                   help="lowest severity that fails the run "
                        "(default: warning — any finding exits 1)")


def _resolve_format(args) -> str:
    if args.format is not None:
        return args.format
    return "json" if args.json else "text"


def _exit_code(findings, fail_on: str) -> int:
    if fail_on == "error":
        findings = [f for f in findings if f.severity == "error"]
    return 1 if findings else 0


def _emit(findings, fmt: str, *, clean_line: str, header: str | None = None,
          ) -> None:
    if fmt == "json":
        print(render_json(findings))
    elif fmt == "sarif":
        print(render_sarif(findings))
    else:
        if header:
            print(header)
        if findings:
            print(render_text(findings))
        else:
            print(clean_line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="MPI correctness analysis: static comm-lint, the "
                    "runtime-verified kernel suite, and static collective-"
                    "plan verification.",
    )
    sub = parser.add_subparsers(dest="command")
    lint_p = sub.add_parser("lint", help="static AST checks (RA2xx)")
    lint_p.add_argument("paths", nargs="+", help="files or directories")
    _add_output_options(lint_p)
    verify_p = sub.add_parser(
        "verify", help="run the kernel suite under the runtime verifier")
    _add_output_options(verify_p)
    plans_p = sub.add_parser(
        "check-plans",
        help="statically verify collective plan sets (RA3xx)")
    from repro.kernels import KERNELS

    plans_p.add_argument("--kernel", choices=sorted(KERNELS),
                         help="restrict to one kernel workload")
    plans_p.add_argument("--n", type=int,
                         help="matrix dimension of the workload")
    plans_p.add_argument("--p", type=int, default=4,
                         help="3D mesh side (ssc) or q (ssc25d); default 4")
    plans_p.add_argument("--c", type=int, default=2,
                         help="2.5D replication factor (ssc25d); default 2")
    plans_p.add_argument("--signature",
                         help="verify the workload of one signature key "
                              "(e.g. 'ssc:n7645:r64:m4x4x4:ppn1:block:...'; "
                              "the fabric hash segment is ignored)")
    plans_p.add_argument("--selftest", action="store_true",
                         help="run the mutation fixtures (each must produce "
                              "its exact finding) and the library-generator "
                              "clean sweep instead of a workload walk")
    _add_output_options(plans_p)
    args = parser.parse_args(argv)

    if args.command == "lint":
        from repro.analysis.lint import lint_paths

        try:
            findings = lint_paths(args.paths)
        except FileNotFoundError as exc:
            print(f"repro.analysis lint: {exc}", file=sys.stderr)
            return 2
        _emit(findings, _resolve_format(args), clean_line="lint clean")
        return _exit_code(findings, args.fail_on)

    if args.command == "verify":
        from repro.analysis.suite import verify_suite

        results = verify_suite()
        all_findings = [f for fs in results.values() for f in fs]
        fmt = _resolve_format(args)
        if fmt == "text":
            for name, fs in results.items():
                status = "clean" if not fs else f"{len(fs)} finding(s)"
                print(f"{name}: {status}")
            if all_findings:
                print(render_text(all_findings))
        else:
            _emit(all_findings, fmt, clean_line="")
        return _exit_code(all_findings, args.fail_on)

    if args.command == "check-plans":
        from repro.analysis import schedule

        fmt = _resolve_format(args)
        if args.selftest:
            failures = schedule.run_selftest()
            if fmt == "text":
                for line in failures:
                    print(f"selftest FAILED: {line}")
                if not failures:
                    print("check-plans selftest passed: every mutation "
                          "fixture produced its expected finding and every "
                          "library generator verified clean")
            else:
                import json as _json

                print(_json.dumps({"selftest_failures": failures}, indent=1))
            return 1 if failures else 0
        try:
            signatures = _signatures_from_args(args)
        except ValueError as exc:
            print(f"repro.analysis check-plans: {exc}", file=sys.stderr)
            return 2
        report = schedule.check_plans(signatures)
        _emit(report.findings, fmt, clean_line="",
              header=report.summary() if fmt == "text" else None)
        return _exit_code(report.findings, args.fail_on)

    parser.print_help()
    return 2


def _signatures_from_args(args):
    """Workload signatures selected by the check-plans flags (None = default)."""
    if args.signature:
        from repro.analysis.schedule import signature_from_key

        return [signature_from_key(args.signature)]
    if args.kernel is None:
        if args.n is not None:
            raise ValueError("--n requires --kernel")
        return None  # the default table1/table2 quick population
    if args.n is None:
        raise ValueError("--kernel requires --n")
    from repro.kernels import KERNELS
    from repro.tune.signature import signature_for

    spec = KERNELS[args.kernel]
    shape = (args.p, args.c)[:len(spec.shape_flags)]
    return [signature_for(args.kernel, spec.mesh_shape(*shape), args.n)]


if __name__ == "__main__":
    raise SystemExit(main())
