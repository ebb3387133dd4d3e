"""Command-line entry point: ``python -m repro.tune``.

Examples::

    python -m repro.tune search ssc --p 2 --n 512 --db tune_db.json
    python -m repro.tune search ssc25d --q 4 --c 2 --n 512 --policy exhaustive
    python -m repro.tune show --db tune_db.json
    python -m repro.tune show --db tune_db.json --key 'ssc:n512:...' --trace
    python -m repro.tune show --db tune_db.json --format json
    python -m repro.tune export --db tune_db.json --output /tmp/copy.json
    python -m repro.tune warm ssc --p 2 --n 512 --n 520 --db tune_db.json
"""

from __future__ import annotations

import argparse
import json
import sys


def _fmt_time(t: float | None) -> str:
    return "-" if t is None else f"{t:.6f}s"


def _add_output_options(p: argparse.ArgumentParser) -> None:
    # Same convention as ``python -m repro.analysis``: ``--format`` picks
    # the renderer, ``--json`` is the ergonomic alias.
    p.add_argument("--format", choices=("text", "json"), default=None,
                   help="output format (default: text)")
    p.add_argument("--json", action="store_true",
                   help="alias for --format json")


def _resolve_format(args) -> str:
    if args.format is not None:
        return args.format
    return "json" if args.json else "text"


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=1, sort_keys=True))


def _print_record(record, trace: bool = False) -> None:
    print(f"signature : {record.signature.key}")
    print(f"policy    : {record.policy}   seed: {record.seed}   "
          f"simulations: {record.simulations}")
    print(f"best      : {record.best.key}   time: {_fmt_time(record.best_time)}")
    print(f"default   : {record.default.key}   "
          f"time: {_fmt_time(record.default_time)}")
    speedup = record.speedup_vs_default
    if speedup is not None:
        print(f"speedup   : {speedup:.3f}x vs paper default")
    if trace:
        print("trace     :")
        for entry in record.trace:
            sim = _fmt_time(entry.sim_time)
            print(f"  {entry.status:<15} model={entry.model_time:.6f}s "
                  f"sim={sim:<11} {entry.candidate.key}")


def _replay_lines(replays: int, aborts: int, refusals: dict) -> str:
    """How many shortlist entries replay scored, and why it fell back."""
    line = (f"replays: {replays} ({aborts} cut short by the deadline)  "
            f"replay fallbacks: {sum(refusals.values())}")
    for reason in sorted(refusals):
        line += f"\n  fell back x{refusals[reason]}: {reason}"
    return line


def _signatures(args) -> list:
    """Resolve the kernel spec (+ one or more ``--n``) to signatures."""
    from repro.kernels import KERNELS
    from repro.tune.signature import signature_for

    spec = KERNELS[args.kernel]
    shape = [getattr(args, flag) for flag in spec.shape_flags]
    if None in shape:
        flags = " and ".join(f"--{flag}" for flag in spec.shape_flags)
        raise SystemExit(f"search {args.kernel} requires {flags}")
    dims = args.n if isinstance(args.n, list) else [args.n]
    return [signature_for(args.kernel, spec.mesh_shape(*shape), n,
                          ppn=args.ppn) for n in dims]


def _cmd_search(args) -> int:
    from repro.tune.db import TuningDB
    from repro.tune.tuner import Tuner

    db = TuningDB(path=args.db)
    tuner = Tuner(db=db, policy=args.policy, seed=args.seed)
    args.n = args.n[0] if isinstance(args.n, list) else args.n
    try:
        sig = _signatures(args)[0]
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    record = tuner.tune(sig)
    _print_record(record, trace=args.trace)
    if args.db:
        db.save()
        print(f"saved {len(db)} record(s) to {args.db}")
    return 0


def _cmd_warm(args) -> int:
    """Pre-warm a tuning db through the service (coalescing + interpolation).

    The requests run through one :class:`~repro.tune.service.TuningService`
    in spec order, so a family sweep (several ``--n`` within ±10%) resolves
    the later sizes as interpolated warm starts; with ``--threads`` > 1 the
    submissions race and concurrent duplicates are coalesced (generation
    stamps then follow the racy first-miss order — use one thread when the
    db bytes must be reproducible run-over-run).
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.tune.service import TuningService

    try:
        sigs = _signatures(args)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    svc = TuningService(args.db, policy=args.policy, seed=args.seed)
    try:
        if args.threads > 1:
            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                records = list(pool.map(lambda s: svc.tune(s), sigs))
        else:
            records = [svc.tune(sig) for sig in sigs]
        for record in records:
            speedup = record.speedup_vs_default
            extra = f"  ({speedup:.3f}x vs default)" if speedup else ""
            print(f"{record.signature.key}\n  -> {record.best.key}  "
                  f"{_fmt_time(record.best_time)}{extra}")
        if args.db:
            target = svc.save()
            print(f"saved {len(svc.db)} record(s) to {target}")
        stats = svc.stats()
        print(f"searches: {stats['searches']}  "
              f"interpolated: {stats['interpolated']}  "
              f"coalesced: {stats['coalesced']}  hits: {stats['hits']}  "
              f"simulations: {stats['simulations']}  "
              f"aliased: {stats['aliased']}")
        print(_replay_lines(stats["replays"], stats["replay_aborts"],
                            stats["replay_refusals"]))
    finally:
        svc.close()
    return 0


def _cmd_show(args) -> int:
    from repro.tune.db import TuningDB

    fmt = _resolve_format(args)
    db = TuningDB(path=args.db)
    if args.key:
        try:
            record = db.get(args.key)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 1
        if fmt == "json":
            _emit_json(record.as_dict())
        else:
            _print_record(record, trace=args.trace)
        return 0
    if fmt == "json":
        _emit_json({"db": str(args.db),
                    "records": [db.get(k).as_dict() for k in db.keys()]})
        return 0
    if not len(db):
        print(f"{args.db}: empty tuning database")
        return 0
    for key in db.keys():
        record = db.get(key)
        speedup = record.speedup_vs_default
        extra = f"  ({speedup:.3f}x vs default)" if speedup else ""
        print(f"{key}\n  -> {record.best.key}  "
              f"{_fmt_time(record.best_time)}{extra}")
    return 0


def _cmd_export(args) -> int:
    from repro.tune.db import TuningDB

    db = TuningDB(path=args.db)
    target = db.save(args.output)
    if _resolve_format(args) == "json":
        _emit_json({"exported": len(db), "path": str(target)})
    else:
        print(f"exported {len(db)} record(s) to {target}")
    return 0


def _add_workload_options(p: argparse.ArgumentParser, *,
                          many_n: bool) -> None:
    if many_n:
        p.add_argument("--n", type=int, required=True, action="append",
                       help="matrix dimension (repeatable)")
    else:
        p.add_argument("--n", type=int, required=True,
                       help="matrix dimension")
    p.add_argument("--p", type=int, default=None,
                   help="3D mesh side (ssc) / 2D mesh side (summa)")
    p.add_argument("--q", type=int, default=None, help="2.5D layer side")
    p.add_argument("--c", type=int, default=None, help="2.5D replication")
    p.add_argument("--ppn", type=int, default=1, help="requested PPN")
    p.add_argument("--policy", default="auto",
                   choices=("auto", "model-only", "exhaustive", "db-only"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--db", default=None, metavar="FILE",
                   help="tuning database to warm-start from and save to")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="Autotune SymmSquareCube configurations "
                    "(N_DUP, PPN, 2.5D replication, algorithm variant).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="run a tuning search")
    from repro.kernels import KERNELS

    p_search.add_argument("kernel", choices=sorted(KERNELS))
    _add_workload_options(p_search, many_n=False)
    p_search.add_argument("--trace", action="store_true",
                          help="print the full decision trace")
    p_search.set_defaults(fn=_cmd_search)

    p_warm = sub.add_parser(
        "warm", help="pre-warm a db through the tuning service")
    p_warm.add_argument("kernel", choices=sorted(KERNELS))
    _add_workload_options(p_warm, many_n=True)
    p_warm.add_argument("--threads", type=int, default=1,
                        help="submit requests from this many threads "
                             "(>1 exercises coalescing; db generation "
                             "order then follows the racy arrival order)")
    p_warm.set_defaults(fn=_cmd_warm)

    p_show = sub.add_parser("show", help="inspect a tuning database")
    p_show.add_argument("--db", required=True, metavar="FILE")
    p_show.add_argument("--key", default=None, help="one record (default: all)")
    p_show.add_argument("--trace", action="store_true")
    _add_output_options(p_show)
    p_show.set_defaults(fn=_cmd_show)

    p_export = sub.add_parser("export", help="re-serialize a database")
    p_export.add_argument("--db", required=True, metavar="FILE")
    p_export.add_argument("--output", required=True, metavar="FILE")
    _add_output_options(p_export)
    p_export.set_defaults(fn=_cmd_export)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
