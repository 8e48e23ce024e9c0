"""Command line driver: verify <suite>, each setting given by its flag.

Every option's dest is a CheckConfig field; a field whose flag is not
given keeps CheckConfig's default, and CheckConfig.validate checks the
values.  Exit status: 0 when every check passes, 1 when any check fails,
2 for configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .suites import SUITES, CheckConfig, emit_report, run_suite


def build_parser() -> argparse.ArgumentParser:
    """The ``verify`` parser; each option's dest is the CheckConfig field it sets."""
    default = CheckConfig()
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run exact verification suites for the local integral identities.",
    )
    parser.add_argument("suite", help="which suite to run: %s" % ", ".join(SUITES))
    parser.add_argument(
        "--deg-u", type=int, default=None, help="U truncation degree (default %d)" % default.deg_u
    )
    parser.add_argument(
        "--deg-v", type=int, default=None, help="V truncation degree (default %d)" % default.deg_v
    )
    parser.add_argument(
        "--radius",
        type=int,
        default=None,
        help="coefficient grid radius (default %d)" % default.radius,
    )
    parser.add_argument(
        "--prime",
        type=int,
        action="append",
        default=None,
        dest="primes",
        metavar="PRIME",
        help="prime to use (repeatable; default %s)" % " ".join(map(str, default.primes)),
    )
    parser.add_argument(
        "--satake",
        type=lambda text: tuple(text.split(",")),  # CheckConfig.validate reads the parts
        action="append",
        default=None,
        dest="satake_points",
        metavar="T,Y1,Y2",
        help="rational Satake point, written --satake=T,Y1,Y2 so that a negative T is not "
        "read as an option (repeatable; default: 5 seeded points)",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for the randomized sweeps")
    parser.add_argument("--format", default=None, dest="fmt", help="text or json (default text)")
    parser.add_argument(
        "--no-timing",
        action="store_true",
        default=None,
        help="omit elapsed times so reports are byte-identical across runs",
    )
    return parser


def _config(args) -> CheckConfig:
    """The run's config: each flag that was given sets its field."""
    values = {}
    for name in CheckConfig._fields:
        flag = getattr(args, name)
        if flag is not None:
            # repeatable flags arrive as lists
            values[name] = tuple(flag) if isinstance(flag, list) else flag
    return CheckConfig(**values)


def main(argv=None) -> int:
    cfg = _config(build_parser().parse_args(argv))
    errors = cfg.validate()
    if errors:
        for err in errors:
            print("config error: %s" % err, file=sys.stderr)
        return 2
    reports = run_suite(cfg)
    sys.stdout.write(emit_report(reports, cfg))
    return 0 if all(r.status == "pass" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
