"""Command line entry points: run experiments and export decision boundaries."""

from __future__ import annotations

import argparse
import json
import sys

from .config import AGGREGATORS, ENCRYPTIONS, TRANSPORTS, default_config, load_config
from .errors import FedBoostError
from .runner import GridSpec, export_boundary, load_model, run_experiment


def _cmd_run(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    # each run flag overrides the config field its dest names; an empty --out keeps the config's
    for name in ("aggregator", "encryption", "transport", "master_seed", "rounds", "out_dir"):
        if getattr(args, name) not in (None, ""):
            setattr(cfg, name, getattr(args, name))
    result = run_experiment(cfg)
    for rec in result.records:
        print(
            f"round {rec.round}: test_acc={rec.global_test_acc:.4f} "
            f"test_loss={rec.global_test_loss:.4f}"
        )
    print(
        f"final: aggregator={cfg.aggregator} encryption={cfg.encryption} "
        f"acc={result.final_test_acc:.4f} loss={result.final_test_loss:.4f}"
    )
    if cfg.out_dir:
        print(f"artifacts written to {cfg.out_dir}")
    return 0


def _cmd_boundary(args) -> int:
    params = load_model(args.model)
    grid = GridSpec(xmin=args.xmin, xmax=args.xmax, ymin=args.ymin, ymax=args.ymax, steps=args.steps)
    export_boundary(params, grid, args.out)
    print(f"boundary grid ({args.steps}x{args.steps}) written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedboost",
        description="Federated gradient boosting with encrypted aggregation on 2D Gaussian data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and export metrics")
    run_p.add_argument("--config", help="JSON config path (defaults to the built-in setup)")
    run_p.add_argument("--aggregator", choices=AGGREGATORS)
    run_p.add_argument("--encryption", choices=ENCRYPTIONS)
    run_p.add_argument("--transport", choices=TRANSPORTS)
    run_p.add_argument("--seed", type=int, dest="master_seed", help="override master_seed")
    run_p.add_argument("--rounds", type=int, help="override round count")
    run_p.add_argument("--out", dest="out_dir", help="output directory for metrics.csv/model.json")
    run_p.set_defaults(func=_cmd_run)

    boundary_p = sub.add_parser("boundary", help="export a decision-boundary grid from a saved model")
    boundary_p.add_argument("--model", required=True, help="model.json produced by `run`")
    boundary_p.add_argument("--out", required=True, help="destination CSV")
    grid = GridSpec()
    for name in ("xmin", "xmax", "ymin", "ymax"):
        boundary_p.add_argument(f"--{name}", type=float, default=getattr(grid, name))
    boundary_p.add_argument("--steps", type=int, default=grid.steps)
    boundary_p.set_defaults(func=_cmd_boundary)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FedBoostError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
