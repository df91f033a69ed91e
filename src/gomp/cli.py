"""Command-line front end.

Subcommands: ``design`` (coherence/objective trace of one design run),
``coherence`` (traces for several methods and grid sizes), ``sweep``
(MSE versus SNR), and ``estimate`` (one-shot estimation on a measurement
file). Configuration comes from a flat JSON file; repeated
``--set key=value`` flags override file values. Exit codes: 0 success,
1 usage or configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench
from .array_model import build_dictionary
from .estimator import estimate


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so cli() owns exit codes."""

    def error(self, message):
        raise UsageError(message)


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise UsageError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise UsageError(f"override {text!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _load_config(args) -> bench.SweepConfig:
    overrides = dict(_parse_override(s) for s in (args.set or []))
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.config is not None:
        return bench.load_config(args.config, overrides)
    return bench.config_from_dict(overrides)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gomp", description="Off-grid DoA estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, require_out: bool):
        p.add_argument("--config", help="JSON config file with flat SweepConfig keys")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--seed", type=int, required=require_out, help="experiment seed")
        p.add_argument("--out", required=require_out, help="output CSV path" + ("" if require_out else " (default: stdout)"))

    add_common(sub.add_parser("design", help="trace one projection design run"), True)
    add_common(sub.add_parser("coherence", help="coherence traces per method and grid size"), True)
    add_common(sub.add_parser("sweep", help="MSE versus SNR Monte Carlo sweep"), True)

    est = sub.add_parser("estimate", help="estimate frequencies from a measurement CSV")
    add_common(est, False)
    est.add_argument("--y", required=True, help="measurement CSV ('N,L' header, complex entries)")
    return parser


def _run_estimate(cfg: bench.SweepConfig, y_path: str, out_path: str | None) -> None:
    y = bench.read_measurements_csv(y_path)
    if y.shape[0] != cfg.N:
        raise ValueError(f"measurement file has N={y.shape[0]} rows but config N={cfg.N}")
    dictionary = build_dictionary(cfg.P, cfg.nu_max, cfg.M)
    phi, _ = bench.build_projection(cfg.projection_kind, dictionary, cfg)
    result = estimate(y, phi, dictionary, cfg.K, cfg.max_steps)
    bench.emit_csv(bench.Table(("k", "nu_hat"), tuple(enumerate(result.nu_hat))), out_path)


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "design":
            bench.emit_csv(bench.run_design_trace(cfg), args.out)
        elif args.command == "coherence":
            bench.emit_csv(bench.run_coherence_experiment(cfg), args.out)
        elif args.command == "sweep":
            bench.emit_csv(bench.run_mse_sweep(cfg), args.out)
        else:
            _run_estimate(cfg, args.y, args.out)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
