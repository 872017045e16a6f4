"""Command-line surface: run a scenario, sweep a variable, run the attack
suite, or emit the default configuration.

Exit codes: 0 on success, 2 on a configuration error, 1 on any other
runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigError, Y00Error
from .scenario import (
    ScenarioConfig,
    attack_suite,
    default_config,
    emit_csv,
    run_scenario,
    sweep,
    write_text,
)


@functools.cache  # built on the first call, not at import
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
        # accepted for old scripts; the Monte Carlo always runs as one in-order pass
        p.add_argument("--workers", type=int, default=1, help="ignored; kept for compatibility")

    p_attacks = sub.add_parser("attacks", help="run the detection/entanglement attack suite")
    add_common(p_attacks)

    p_default = sub.add_parser("emit-default-config", help="print the shipped demo scenario")
    add_common(p_default, needs_config=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout if args.out is None else args.out
    try:
        if args.command == "emit-default-config":
            write_text(default_config().to_text(), out)
            return 0
        config = ScenarioConfig.from_file(args.config, tuple(args.overrides))
        if args.command == "run":
            write_text(run_scenario(config).to_text(config), out)
        elif args.command == "sweep":
            emit_csv(sweep(config), out)
        elif args.command == "attacks":
            write_text(attack_suite(config).to_text(), out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Y00Error, OSError, MemoryError) as exc:
        # a bare MemoryError() has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
