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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomo",
        description="Density-matrix reconstruction runs with fixed-point validity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset from a spec")
    gen.add_argument("--config", required=True, help="experiment spec JSON")
    gen.add_argument("--seed", type=int, default=None, help="override the spec seed")
    gen.add_argument("--out", default=None, help="output directory")
    gen.set_defaults(handler=_cmd_generate)

    rec = sub.add_parser("reconstruct", help="run solvers against a generated dataset")
    rec.add_argument("--config", required=True, help="run config JSON with solver list")
    rec.add_argument("--dataset", required=True, help="dataset directory (with manifest.json)")
    rec.add_argument("--out", default=None, help="output directory for record tables")
    rec.set_defaults(handler=_cmd_reconstruct)

    trap = sub.add_parser("rank-trap", help="rank-limited starts against fixed-rank truths")
    trap.add_argument("--config", required=True, help="protocol config JSON")
    trap.add_argument("--seed", type=int, default=None, help="override the config seed")
    trap.add_argument("--out", default=None, help="output directory")
    trap.set_defaults(handler=_cmd_rank_trap)

    val = sub.add_parser("validate", help="first-order validity check of a state file")
    val.add_argument("--state", required=True, help="matrix JSON file")
    val.add_argument("--config", required=True, help="objective config JSON (operator + fit)")
    val.add_argument("--data", required=True, help="measurement data CSV")
    val.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
