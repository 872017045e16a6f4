"""Command-line surface: run a scenario, sweep a variable, run the attack
suite, or emit the default configuration.

Exit codes: 0 on success, 2 on a configuration error, 1 on any other
runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, Y00Error
from .scenario import (
    ScenarioConfig,
    attack_suite,
    default_config,
    emit_csv,
    run_scenario,
    sweep,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="y00sim",
        description="Keyed coherent-state stream-cipher physical-layer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("config", help="path to a key=value scenario file")
            p.add_argument(
                "--set",
                dest="overrides",
                action="append",
                default=[],
                metavar="KEY=VALUE",
                help="override a configuration key",
            )
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    p_run = sub.add_parser("run", help="run one scenario and print its report")
    p_sweep = sub.add_parser("sweep", help="run the configured sweep and emit CSV")
    for p in (p_run, p_sweep):
        add_common(p)
        p.add_argument("--workers", type=int, default=1, help="concurrent Monte Carlo chunks")

    p_attacks = sub.add_parser("attacks", help="run the detection/entanglement attack suite")
    add_common(p_attacks)

    p_default = sub.add_parser("emit-default-config", help="print the shipped demo scenario")
    add_common(p_default, needs_config=False)
    return parser


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "emit-default-config":
            _write_output(default_config().to_text(), args.out)
            return 0
        config = ScenarioConfig.from_file(args.config, tuple(args.overrides))
        if args.command == "run":
            report = run_scenario(config, workers=args.workers)
            _write_output(report.to_text(config), args.out)
        elif args.command == "sweep":
            series = sweep(config, workers=args.workers)
            if args.out is None:
                emit_csv(series, sys.stdout)
            else:
                emit_csv(series, args.out)
        elif args.command == "attacks":
            _write_output(attack_suite(config).to_text(), args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Y00Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
