"""Command-line front end: one subcommand per experiment kind.

Options may come from flags, from a JSON config file (--config), or both;
flags win over the file, which wins over built-in defaults.  Each run
writes <kind>.csv and <kind>.meta.json into --out and prints a one-line
summary.  Invalid parameters, unreadable files and the package's own
numerical failures exit with status 1 and a one-line "error:" on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .classical import KickedTopError
from .experiments import EXPERIMENT_KINDS, ExperimentConfig, run_experiment

# failures reported as a one-line "error:" with exit status 1: bad input,
# unreadable files, and the package's own numerical failures
_REPORTED_ERRORS = (ValueError, OSError, KickedTopError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickedtop",
        description="Kicked-top experiments: portraits, Lyapunov exponents, "
        "entropy and mutual-information dynamics and maps.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind in sorted(EXPERIMENT_KINDS):
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="JSON file with ExperimentConfig fields")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--kappa", type=float, help="kick strength")
        p.add_argument("--j", type=float, help="spin magnitude")
        p.add_argument("--j-list", type=float, nargs="+", help="spin magnitudes (teq-scaling)")
        p.add_argument("--center", type=float, nargs=2, metavar=("THETA", "PHI"),
                       help="initial/centre point on the sphere")
        p.add_argument("--grid", type=int, nargs=2, metavar=("NTHETA", "NPHI"),
                       help="grid resolution for portraits and maps")
        p.add_argument("--count", type=int, help="ensemble size / sample count")
        p.add_argument("--steps", type=int, help="number of map periods")
        p.add_argument("--k", type=int, help="nearest-neighbour order for MI (default 3)")
        p.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"),
                       help="averaging window in steps")
        p.add_argument("--n-blocks", type=int, help="Benettin blocks (lyapunov)")
        p.add_argument("--steps-per-block", type=int, help="steps per Benettin block")
        p.add_argument("--spread1", type=float, help="subsystem-1 patch solid angle")
        p.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    settings: dict = {}
    if args.config:
        with open(args.config) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        loaded.pop("kind", None)
        settings.update(loaded)
    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field.name, None)
        if field.name != "kind" and value is not None:
            settings[field.name] = value
    unknown = set(settings) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(kind=args.kind, **settings)


def _summary_line(dataset) -> str:
    meta = dataset.meta
    if dataset.kind == "lyapunov":
        return (
            f"lyapunov: lambda={meta['lambda']:.6f} "
            f"(n={meta['n_blocks']}, s={meta['steps_per_block']}, kappa={meta['kappa']})"
        )
    bits = [f"{dataset.kind}: {len(dataset.rows)} rows"]
    for key in ("kappa", "j", "teq", "growth_slope", "loglog_slope", "linlog_slope"):
        if key in meta and meta[key] is not None:
            value = meta[key]
            bits.append(f"{key}={value:.4f}" if isinstance(value, float) else f"{key}={value}")
    if meta.get("failed_cells"):
        bits.append(f"failed_cells={len(meta['failed_cells'])}")
    return " ".join(bits)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        dataset = run_experiment(config)
        csv_path, meta_path = dataset.write(args.out)
    except _REPORTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_summary_line(dataset))
    print(f"wrote {csv_path} and {meta_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
