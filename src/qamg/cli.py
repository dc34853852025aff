"""Command-line front end: generate instances, run experiments, emit tables.

Exit codes: 0 success, 1 experiment checks failed, 2 usage error,
3 I/O error, 4 schema error, 5 width or work cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .circuits import WidthCapError
from .harness import (
    ExperimentConfig,
    GENERATOR_KINDS,
    SchemaError,
    WorkCapError,
    emit_tables,
    generate_instance,
    run_experiment,
    save_instance,
    write_atomic,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SCHEMA = 4
EXIT_CAP = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qamg", description="Coin-based quantum verification game toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--m", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--s", type=int)
    gen.add_argument("--coins", type=int)
    gen.add_argument("--gates", type=int)
    gen.add_argument("--target", help="acceptance target for qma-p, e.g. 1/2")
    gen.add_argument("--error", help="expected-error budget for qam-bounded, e.g. 1/20")

    run = sub.add_parser("run", help="run one experiment and write its report")
    run.add_argument("--instance", required=True)
    run.add_argument("--mode", required=True, choices=("enumerate", "sample", "analytic"))
    run.add_argument("--reps", type=int, help="measurement events or repetitions")
    run.add_argument("--copies", type=int, help="parallel witness copies")
    run.add_argument("--restarts", type=int, help="optimizer restarts")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out")
    run.add_argument("--exact", action="store_true", help="exact dyadic arithmetic")

    table = sub.add_parser("table", help="collect report JSONs into a CSV")
    table.add_argument("--in", dest="in_dir", required=True)
    table.add_argument("--out", required=True)
    return parser


_PARSER = build_parser()  # parse_args fills a fresh namespace on every call


def _cmd_gen(args: argparse.Namespace) -> int:
    params = {
        key: value
        for key, value in (
            ("m", args.m),
            ("k", args.k),
            ("s", args.s),
            ("coins", args.coins),
            ("gates", args.gates),
            ("target", args.target),
            ("error", args.error),
        )
        if value is not None
    }
    inst = generate_instance(args.kind, args.seed, **params)
    save_instance(inst, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        instance=args.instance,
        mode=args.mode,
        seed=args.seed,
        reps=args.reps,
        copies=args.copies,
        restarts=args.restarts,
        exact=bool(args.exact),
        out=args.out,
    )
    report = run_experiment(config)
    failed = [name for name, ok in report["checks"].items() if not ok]
    if args.out:
        print(f"wrote {args.out}")
    if failed:
        print(f"checks failed: {', '.join(sorted(failed))}", file=sys.stderr)
        return EXIT_CHECKS_FAILED
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    directory = Path(args.in_dir)
    if not directory.is_dir():
        raise OSError(f"{directory} is not a directory")
    reports = []
    for path in sorted(directory.glob("*.json")):
        with open(path) as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
        # Instance files may sit beside reports; only reports carry a table_row.
        if isinstance(payload, dict) and "table_row" in payload:
            reports.append(payload)
    write_atomic(args.out, emit_tables(reports))
    print(f"wrote {args.out} ({len(reports)} rows)")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_table(args)
    except WidthCapError as exc:
        print(f"width cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except WorkCapError as exc:
        print(f"work cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
