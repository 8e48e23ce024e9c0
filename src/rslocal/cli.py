"""Command line driver: verify <suite> with configurable parameters.

Exit status: 0 when every check passes, 1 when any check fails, 2 for
configuration errors.  A JSON config file may supply any flag's value;
explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .suites import SUITES, CheckConfig, emit_report, run_suite


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected s,w")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_satake(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected t,y1,y2")
    try:
        return tuple(Fraction(part) for part in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


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
        "--sw",
        type=_parse_pair,
        action="append",
        default=None,
        dest="sw_points",
        metavar="S,W",
        help="evaluation point s,w (repeatable; default %s)"
        % " and ".join("%d,%d" % pt for pt in default.sw_points),
    )
    parser.add_argument(
        "--satake",
        type=_parse_satake,
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


def _json_type(kind, what: str):
    """A config conversion that accepts only JSON values of one type."""

    def check(value):
        # a JSON true is a Python int, but not an integer option value
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise TypeError("expected %s, got %s" % (what, json.dumps(value)))
        return value

    return check


_config_int = _json_type(int, "an integer")
_config_list = _json_type(list, "a list")


def _config_pair(value) -> tuple[int, int]:
    if len(_config_list(value)) != 2:
        raise ValueError("expected two integers s,w, got %s" % json.dumps(value))
    return _config_int(value[0]), _config_int(value[1])


def _config_satake(pt) -> tuple[Fraction, Fraction, Fraction]:
    coords = tuple(Fraction(str(c)) for c in _config_list(pt))
    if len(coords) != 3:
        raise ValueError("expected three coordinates t,y1,y2, got %r" % (pt,))
    return coords


# config-file key -> the CheckConfig field it sets, and the check and
# conversion of its JSON value
_CONFIG_KEYS = {
    "deg_u": ("deg_u", _config_int),
    "deg_v": ("deg_v", _config_int),
    "radius": ("radius", _config_int),
    "primes": ("primes", lambda value: tuple(_config_int(v) for v in _config_list(value))),
    "sw": ("sw_points", lambda value: tuple(_config_pair(pt) for pt in _config_list(value))),
    "satake": (
        "satake_points",
        lambda value: tuple(_config_satake(pt) for pt in _config_list(value)),
    ),
    "seed": ("seed", _config_int),
    "format": ("fmt", _json_type(str, "a string")),
    "no_timing": ("no_timing", _json_type(bool, "true or false")),
}


def _merge_config(args) -> CheckConfig:
    """The run's config: explicit flags win over the config file, and
    fields set by neither keep CheckConfig's defaults."""
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
            field, convert = _CONFIG_KEYS[key]
            try:
                values[field] = convert(value)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError("config key %r: %s" % (key, exc))
    for field in dataclasses.fields(CheckConfig):
        flag = getattr(args, field.name)
        if flag is not None:
            # repeatable flags arrive as lists
            values[field.name] = tuple(flag) if isinstance(flag, list) else flag
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
