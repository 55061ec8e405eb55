"""Command-line interface.

Subcommands: steady, currents, cumulants, rectify, amplify, sweep and
reproduce <target>.  Each accepts --config <path> (YAML, see docs/config.md)
and --out <path>; without --out the rendered table goes to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import BASE_SYSTEM, REPRODUCE_TARGETS, build_config, load_config
from .errors import VfluxError
from .runner import run

_DEFAULTS_HELP = "defaults table (two-bath base system): " + ", ".join(
    f"{key}={value}" for key, value in BASE_SYSTEM.items()
)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", help="YAML scenario configuration")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="output format (default csv, or the config's output.format)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vflux",
        description="Steady-state heat transport through a V-type three-level "
                    "system coupled to three bosonic baths.",
        epilog=_DEFAULTS_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("steady", "steady state by every applicable solver"),
        ("currents", "steady-state heat and particle currents"),
        ("cumulants", "current cumulants of one counted flow"),
        ("rectify", "rectification factor over a temperature-bias grid"),
        ("amplify", "amplification factors over a middle-temperature grid"),
        ("sweep", "Cartesian parameter sweep (1 or 2 axes from the config)"),
    ):
        p = sub.add_parser(name, help=text, epilog=_DEFAULTS_HELP)
        _add_common(p)
    p = sub.add_parser("reproduce", help="recompute one bundled figure dataset",
                       epilog=_DEFAULTS_HELP)
    p.add_argument("target", choices=REPRODUCE_TARGETS)
    _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"task": args.command}
    if args.command == "reproduce":
        overrides["reproduce"] = args.target
    try:
        if args.config:
            config = load_config(args.config, overrides)
        else:
            config = build_config(overrides, source="<cli>")
        if args.format:
            config = dataclasses.replace(config, out_format=args.format)
        path, text = run(config, out_path=args.out)
        if path is None:
            sys.stdout.write(text)
        else:
            print(f"wrote {path}", file=sys.stderr)
        return 0
    except VfluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
