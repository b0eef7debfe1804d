"""Command-line entry points: tomo generate | reconstruct | rank-trap | validate."""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return config


def _out_dir(args, config: dict) -> str:
    """--out, else the config's output_dir, else the working directory."""
    return args.out or experiments._json_of(config.get("output_dir", "."), "output_dir", str) or "."


def _cmd_generate(args) -> int:
    spec = experiments.parse_experiment_spec(
        _load_config(args.config), output_dir=args.out, seed=args.seed
    )
    manifest = experiments.generate_dataset(spec)
    print(f"wrote {len(manifest['instances'])} instances under {spec.output_dir}")
    return 0


def _cmd_reconstruct(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args, config)
    records = experiments.reconstruct_dataset(args.dataset, config, out_dir=out)
    converged = sum(rec.stop_reason == "converged" for rec in records)
    print(f"wrote {len(records)} records to {out} ({converged} converged)")
    return 0


def _cmd_rank_trap(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    out = _out_dir(args, config)
    _records, summary = experiments.rank_trap(config, out_dir=out)
    columns = experiments.SUMMARY_CSV_COLUMNS
    print("  ".join(columns))
    for row in summary:
        print("  ".join(f"{row[column]:>{len(column)}.6g}" for column in columns))
    return 0


def _cmd_validate(args) -> int:
    cert, code = experiments.validate_state(args.state, _load_config(args.config), args.data)
    print(json.dumps(cert.to_json_dict(), sort_keys=True))
    return code


# Each command's help line, handler and arguments (flag, keyword arguments).
COMMANDS = {
    "generate": ("generate a synthetic dataset from a spec", _cmd_generate, [
        ("--config", dict(required=True, help="experiment spec JSON")),
        ("--seed", dict(type=int, default=None, help="override the spec seed")),
        ("--out", dict(default=None, help="output directory")),
    ]),
    "reconstruct": ("run solvers against a generated dataset", _cmd_reconstruct, [
        ("--config", dict(required=True, help="run config JSON with solver list")),
        ("--dataset", dict(required=True, help="dataset directory (with manifest.json)")),
        ("--out", dict(default=None, help="output directory for record tables")),
    ]),
    "rank-trap": ("rank-limited starts against fixed-rank truths", _cmd_rank_trap, [
        ("--config", dict(required=True, help="protocol config JSON")),
        ("--seed", dict(type=int, default=None, help="override the config seed")),
        ("--out", dict(default=None, help="output directory")),
    ]),
    "validate": ("first-order validity check of a state file", _cmd_validate, [
        ("--state", dict(required=True, help="matrix JSON file")),
        ("--config", dict(required=True, help="objective config JSON (operator + fit)")),
        ("--data", dict(required=True, help="measurement data CSV")),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `tomo` parser, with every command, or with only `command`: that parses
    the command's arguments the same way, and skips building the others."""
    parser = argparse.ArgumentParser(
        prog="tomo",
        description="Density-matrix reconstruction runs with fixed-point validity checks.",
    )
    # With one command built, the usage line still names them all.
    metavar = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, handler, arguments) in COMMANDS.items():
        if command in (None, name):
            cmd = sub.add_parser(name, help=text)
            for flag, options in arguments:
                cmd.add_argument(flag, **options)
            cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A call names one command, so only its parser is built (the others took
    # half of a validate call's parse).
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    # A RuntimeError is a run that cannot go on (json.JSONDecodeError is a ValueError).
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
