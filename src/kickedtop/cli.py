"""Command-line front end: one subcommand per experiment kind.

Options may come from flags, from a JSON config file (--config), or both;
flags win over the file, which wins over built-in defaults.  Each run
writes <kind>.csv and <kind>.meta.json into --out and prints a one-line
summary.  Invalid parameters, unreadable files, allocations that cannot
be made and the package's own numerical failures exit with status 1 and
a one-line "error:" on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classical import KickedTopError
from .experiments import _DEFAULTS, EXPERIMENT_KINDS, ExperimentConfig, run_experiment

__all__ = ["main"]

# failures reported as a one-line "error:" with exit status 1: bad input,
# unreadable files, an allocation that cannot be made, and the package's
# own numerical failures
_REPORTED_ERRORS = (ValueError, OSError, MemoryError, KickedTopError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main reports a malformed command line like any other bad input
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kickedtop",
        description="Kicked-top experiments: portraits, Lyapunov exponents, "
        "entropy and mutual-information dynamics and maps.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind in sorted(EXPERIMENT_KINDS):
        # no abbreviations: --k would otherwise stand for --kappa where no --k exists
        p = sub.add_parser(kind, help=f"run the {kind} experiment", allow_abbrev=False)
        p.add_argument("--config", help="JSON file with ExperimentConfig fields")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        for name in _DEFAULTS[kind]:
            spec = ExperimentConfig.__dataclass_fields__[name].metadata
            if spec["arity"] != "pairs":  # initials (pairs) is set only from a config file
                p.add_argument("--" + name.replace("_", "-"), type=spec["type"],
                               nargs={"pair": 2, "list": "+"}.get(spec["arity"]),
                               help=spec["help"])
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    settings: dict = {}
    if args.config:
        with open(args.config) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        kind = loaded.pop("kind", args.kind)
        if kind != args.kind:
            raise ValueError(f"config file kind {kind!r} does not match the subcommand {args.kind!r}")
        settings.update(loaded)
    settings.update((name, value) for name, value in vars(args).items()
                    if name in _DEFAULTS[args.kind] and value is not None)
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
            if isinstance(value, float):
                # fixed point would print every integer digit of a huge kappa
                value = f"{value:.4e}" if abs(value) >= 1e6 else f"{value:.4f}"
            bits.append(f"{key}={value}")
    if meta.get("failed_cells"):
        bits.append(f"failed_cells={len(meta['failed_cells'])}")
    return " ".join(bits)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _config_from_args(args)
        dataset = run_experiment(config)
        csv_path, meta_path = dataset.write(args.out)
    except _REPORTED_ERRORS as exc:
        # Python's own MemoryError carries no message; argparse echoes
        # arguments as typed, so a line break in one is escaped
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"error: {message or type(exc).__name__}", file=sys.stderr)
        return 1
    print(_summary_line(dataset))
    print(f"wrote {csv_path} and {meta_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
