"""faultlab command line: run, report, and validate subcommands.

Exit codes: 0 success, 1 config validation failure, 2 runtime failure,
141 (128 + SIGPIPE, as a shell reports it) without a traceback when stdout
closes early, as in ``faultlab validate c.yaml | head -1``.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..yamlio import render
from .config import load_config
from .report import ReportError, report
from .runner import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultlab",
        description="Hardware-fault reliability workbench for quantized inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="YAML experiment config")
    p_run.add_argument("--output", help="override the output directory")
    p_run.add_argument("-v", "--verbose", action="store_true")

    p_report = sub.add_parser("report", help="summarize a run directory")
    p_report.add_argument("directory", help="directory holding campaign CSVs")
    p_report.add_argument("--no-svg", action="store_true",
                          help="skip chart regeneration")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="YAML experiment config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is flushed again at exit: devnull keeps that from raising
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _command(args) -> int:
    if args.command in ("validate", "run"):
        config, errors = load_config(args.config)
        if errors:
            for err in errors:
                print(f"invalid: {err}", file=sys.stderr)
            return 1

    if args.command == "validate":
        print("config OK")
        print(render(config), end="")
        return 0

    if args.command == "run":
        try:
            manifest = run(config, output_override=args.output)
        except Exception as err:  # noqa: BLE001 - CLI boundary
            print(f"run failed: {err}", file=sys.stderr)
            return 2
        if args.verbose:
            for name in manifest["outputs"]:
                print(f"wrote {name}")
        print(f"done: {manifest['experiment']} "
              f"({manifest['wall_clock_s']}s, seed {manifest['master_seed']})")
        return 0

    try:
        print(report(args.directory, write_svg=not args.no_svg))
    except ReportError as err:
        print(f"report failed: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
