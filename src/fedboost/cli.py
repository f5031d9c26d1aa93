"""Command line entry points: run experiments, export decision boundaries,
benchmark the cryptosystem."""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import aggregate, paillier
from .config import AGGREGATORS, ENCRYPTIONS, TRANSPORTS, default_config, load_config
from .errors import FedBoostError
from .runner import GridSpec, export_boundary, load_model, run_experiment


def _cmd_run(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    if args.aggregator:
        cfg.aggregator = args.aggregator
    if args.encryption:
        cfg.encryption = args.encryption
    if args.transport:
        cfg.transport = args.transport
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.rounds is not None:
        cfg.rounds = args.rounds
    if args.out:
        cfg.out_dir = args.out
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


def _cmd_keybench(args) -> int:
    rng = random.Random(0)
    start = time.perf_counter()
    kp = paillier.keygen(args.key_bits, seed=0)
    keygen_s = time.perf_counter() - start
    plains = [rng.randrange(kp.public.n) for _ in range(args.trials)]

    # key holders (every client) encrypt with the key pair
    start = time.perf_counter()
    cts = [paillier.encrypt(kp, m, rng) for m in plains]
    encrypt_s = time.perf_counter() - start

    start = time.perf_counter()
    decrypted = [paillier.decrypt(kp, c) for c in cts]
    decrypt_s = time.perf_counter() - start
    mismatches = sum(d != m for d, m in zip(decrypted, plains))

    start = time.perf_counter()
    acc = cts[0]
    for c in cts[1:]:
        acc = paillier.he_add(kp.public, acc, c)
    add_s = time.perf_counter() - start

    start = time.perf_counter()
    for c in cts:
        paillier.he_scalar_mul(kp.public, 97, c)
    mul_s = time.perf_counter() - start

    print(f"key_bits={args.key_bits} trials={args.trials}")
    print(f"keygen:     {keygen_s * 1e3:9.3f} ms")
    print(f"encrypt:    {encrypt_s / args.trials * 1e6:9.3f} us/op")
    print(f"decrypt:    {decrypt_s / args.trials * 1e6:9.3f} us/op")
    print(f"he_add:     {add_s / max(1, args.trials - 1) * 1e6:9.3f} us/op")
    print(f"scalar_mul: {mul_s / args.trials * 1e6:9.3f} us/op")
    print(f"slots:      {aggregate.slots_per_ciphertext(args.key_bits):9d} entries per ciphertext")
    if mismatches:
        raise FedBoostError(f"{mismatches} of {args.trials} decryptions differ from the plaintext")
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
    run_p.add_argument("--seed", type=int, help="override master_seed")
    run_p.add_argument("--rounds", type=int, help="override round count")
    run_p.add_argument("--out", help="output directory for metrics.csv/model.json")
    run_p.set_defaults(func=_cmd_run)

    boundary_p = sub.add_parser("boundary", help="export a decision-boundary grid from a saved model")
    boundary_p.add_argument("--model", required=True, help="model.json produced by `run`")
    boundary_p.add_argument("--out", required=True, help="destination CSV")
    boundary_p.add_argument("--xmin", type=float, default=-6.0)
    boundary_p.add_argument("--xmax", type=float, default=6.0)
    boundary_p.add_argument("--ymin", type=float, default=-6.0)
    boundary_p.add_argument("--ymax", type=float, default=6.0)
    boundary_p.add_argument("--steps", type=int, default=101)
    boundary_p.set_defaults(func=_cmd_boundary)

    bench_p = sub.add_parser("keybench", help="time keygen and homomorphic operations")
    bench_p.add_argument("--key-bits", type=int, default=128)
    bench_p.add_argument("--trials", type=int, default=200)
    bench_p.set_defaults(func=_cmd_keybench)
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
