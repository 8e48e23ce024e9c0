"""Command line driver: verify <suite> with configurable parameters.

Exit status: 0 when every check passes, 1 when any check fails, 2 for
configuration errors.  A JSON config file may supply any flag's value;
explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .suites import SUITES, CheckConfig, emit_report, run_suite


def _comma_tuple(convert, form: str):
    """An argparse type that reads the comma-separated parts of ``form`` with ``convert``."""

    def parse(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != len(form.split(",")):
            raise argparse.ArgumentTypeError("expected " + form)
        try:
            return tuple(map(convert, parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The ``verify`` parser; each option's dest is the CheckConfig field it sets."""
    default = CheckConfig()
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run exact verification suites for the local integral identities.",
    )
    parser.add_argument("suite", choices=SUITES, help="which suite to run")
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
        type=_comma_tuple(Fraction, "t,y1,y2"),
        action="append",
        default=None,
        dest="satake_points",
        metavar="T,Y1,Y2",
        help="rational Satake point, written --satake=T,Y1,Y2 so that a negative T is not "
        "read as an option (repeatable; default: 5 seeded points)",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for the randomized sweeps")
    parser.add_argument("--format", choices=("text", "json"), default=None, dest="fmt")
    parser.add_argument(
        "--no-timing",
        action="store_true",
        default=None,
        help="omit elapsed times so reports are byte-identical across runs",
    )
    parser.add_argument("--config", default=None, help="JSON file of default option values")
    return parser


# config-file key -> the CheckConfig field it sets
_CONFIG_KEYS = {
    "deg_u": "deg_u", "deg_v": "deg_v", "radius": "radius", "primes": "primes",
    "satake": "satake_points", "seed": "seed", "format": "fmt", "no_timing": "no_timing",
}


def _tuples(value):
    """A JSON value with every list made a tuple, as a repeatable flag's list is."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _merge_config(args) -> CheckConfig:
    """The run's config: explicit flags win over the config file, and
    fields set by neither keep CheckConfig's defaults.

    The file's values are validated on their own, with the run's suite,
    so a malformed value is an error even where a flag overrides it.
    """
    values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError("cannot read config file: %s" % exc)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise ValueError("unknown config key %r" % key)
            values[_CONFIG_KEYS[key]] = _tuples(value)
        errors = CheckConfig(args.suite, **values).validate()
        if errors:
            raise ValueError("; ".join("config file: %s" % err for err in errors))
    for name in CheckConfig._fields:
        flag = getattr(args, name)
        if flag is not None:
            # repeatable flags arrive as lists
            values[name] = tuple(flag) if isinstance(flag, list) else flag
    return CheckConfig(**values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
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
