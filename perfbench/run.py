"""fedboost benchmark driver: run one workload for a fixed time, check every
run's output and print its metrics.

    python3 perfbench/run.py --workload plain_boost --seed 1 --seconds 42 --trace 0

Each workload is a closed loop: one ``run_experiment`` at a time, each in a
fresh worker process (``worker.py``) with its own deadline, generated from
``--seed``. With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics, whose timings are scaled to the baseline machine's
speed by a reference kernel timed around each repetition; with ``--trace 1``
runs alternate between untraced and traced, and it holds the per-layer
metrics and the tracing overhead. The lines before it are a table with each
metric's sample count. Machine, inputs, every repetition and (traced) every
span are written to ``.perfbench_out/``.
See NOTES.md for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Metric names, units and the workloads' one-line reasons live in BENCHMARK.json
# only; main() refuses to report a metric set that differs from it.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The engine gives up on a silent peer after ENGINE_TIMEOUT_S (a recv or the TCP
# accept), far above any wait of a healthy run, and then joins each client for
# up to 10 s. A worker that has still not finished by REP_DEADLINE_S is killed.
# Either way the repetition counts as failed; the engine's timeout comes first,
# so a hang is reported as transport.timeouts rather than only as a kill.
ENGINE_TIMEOUT_S = 20.0
REP_DEADLINE_S = 60.0
SETUP_PANEL = 8
SETUP_MIN_SECONDS = 1.0
# reference.reference_s() on the 2-vCPU machine of the baseline in NOTES.md;
# timings are reported in seconds of that machine.
REFERENCE_NOMINAL_S = 0.45
# Accuracy every workload clears on every seed; chance is 0.5.
ACC_FLOOR = 0.8

WORKLOADS = {
    "plain_boost": {
        "samples": 40000,
        "settings": dict(aggregator="fedboosting", encryption="none", transport="loopback", rounds=3),
    },
    "he_dp_1024": {
        "samples": 4000,
        "settings": dict(
            aggregator="fedboosting", encryption="he_dp", key_bits=1024, transport="loopback", rounds=1
        ),
    },
    "avg_he_tcp": {
        "samples": 40000,
        "settings": dict(aggregator="fedavg", encryption="he", key_bits=128, transport="tcp", rounds=5),
    },
}


def make_config(workload: str, seed: int):
    from fedboost.config import ExperimentConfig, two_client_noniid

    spec = WORKLOADS[workload]
    cfg = ExperimentConfig(
        clients=two_client_noniid(spec["samples"], master_seed=seed),
        master_seed=seed,
        timeout_s=ENGINE_TIMEOUT_S,
        **spec["settings"],
    )
    cfg.validate()
    return cfg


def time_setup(cfg) -> float:
    """The set-up every run pays before round 1, timed through public calls."""
    from fedboost import paillier, runner
    from fedboost.protocol import derive_seed

    start = time.perf_counter()
    splits = runner.build_splits(cfg)
    runner.combined_test_set(splits)
    if cfg.encryption != "none":
        paillier.keygen(cfg.key_bits, derive_seed(cfg.master_seed, "keygen"))
    return time.perf_counter() - start


def setup_pass(configs: list) -> list[float]:
    """One set-up time per config of the panel."""
    return [time_setup(cfg) for cfg in configs]


def setup_times(passes: list[list[float]]) -> list[float]:
    """Each panel seed's fastest set-up over the run's passes.

    The panel is master seeds 0 to SETUP_PANEL - 1 in every run, because
    keygen time depends on how long the prime search runs for a seed
    (IQR/median about 0.5 over seeds at 1024 bits); with a fixed panel that
    luck is equal in every run. A set-up takes 10 to 200 ms, and a shared
    virtual machine can run up to half slower for stretches of seconds;
    passes are spread over the whole run and the fastest of each seed is
    kept, so the median over the panel follows the code more than the host."""
    return [min(times) for times in zip(*passes)]


def machine_info() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit or "unknown (not a git checkout)",
    }


def _group_gone(pgid: int) -> bool:
    """Wait briefly for every process of a worker's group to end; kill any left."""
    for _ in range(40):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return False


def run_rep(cfg_dict: dict, traced: bool) -> dict:
    """One repetition in a fresh worker process group; never raises for a
    failed repetition, it returns one with ``problems`` set."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps({"config": cfg_dict, "trace": traced}),
                                          timeout=REP_DEADLINE_S)
        problems = []
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        problems = [f"no result within the {REP_DEADLINE_S:.0f} s deadline"]
    if not _group_gone(proc.pid):
        problems.append("a process of the run was still alive after it ended")
    rep = {"traced": traced, "wall_s": time.perf_counter() - start, "exit_code": proc.returncode}
    lines = stdout.strip().splitlines()
    try:
        rep.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        problems.append(f"worker printed no result: {stdout.strip()[-400:]!r}")
    if proc.returncode != 0:
        problems.append(f"worker exited with code {proc.returncode}: {stderr.strip()[-400:]}")
    rep["problems"] = problems + rep.get("problems", [])
    return rep


def check_reps(reps: list[dict]) -> None:
    """Mark repetitions whose output is wrong or differs from the first good
    one; the engine is seed-deterministic, so any difference is a failure."""
    reference = None
    for rep in reps:
        if rep["problems"]:
            continue
        if rep["final_test_acc"] < ACC_FLOOR:
            rep["problems"].append(f"final test accuracy {rep['final_test_acc']} below {ACC_FLOOR}")
        elif reference is None:
            reference = rep["digest"]
        elif rep["digest"] != reference:
            rep["problems"].append("result differs from the first repetition of this seed")


def summary(values: list[float]) -> dict:
    return {
        "value": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "max": max(values),
    }


def end_to_end(reps: list[dict], setup: list[float], cfg, train_rows: int) -> dict:
    """Timings are in seconds of the baseline machine: each repetition's wall
    time is scaled by REFERENCE_NOMINAL_S over the reference time around that
    repetition, and the set-up time by the run's median of that factor. The
    host's speed drifts over minutes, more than a run lasts; the reference,
    timed in the same process as the repetition, slows with it."""
    samples = cfg.rounds * cfg.epochs * train_rows
    speed = [REFERENCE_NOMINAL_S / r["ref_s"] for r in reps]
    run_s = [r["run_s"] * f for r, f in zip(reps, speed)]
    return {
        "run_s": summary(run_s),
        "samples_per_s": summary([samples / t for t in run_s]),
        "setup_s": summary([t * statistics.median(speed) for t in setup]),
        "wire_bytes_per_round": summary(
            [sum(r["wire"]["bytes"].values()) / cfg.rounds for r in reps]
        ),
        "final_test_acc": summary([r["final_test_acc"] for r in reps]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(reps: list[dict], traced: list[dict], untraced: list[dict], cfg,
              train_steps: int) -> dict:
    """Medians over the good traced repetitions, except aborts and timeouts:
    a run that hits one fails, so they are summed over every repetition of
    the run whose worker reported its frames."""
    import tracing

    per_rep = [
        tracing.layer_metrics(r["spans"], r["items"], r["wire"], cfg.rounds, train_steps)
        for r in traced
    ]
    metrics = {name: summary([m[name] for m in per_rep]) for name in per_rep[0]}
    wires = [r["wire"] for r in reps if "wire" in r]
    metrics["protocol.aborts"] = {
        "value": sum(w["frames"].get("ABORT", 0) for w in wires), "n": len(wires)
    }
    metrics["transport.timeouts"] = {"value": sum(w["timeouts"] for w in wires), "n": len(wires)}
    overhead = statistics.median(r["run_s"] for r in traced) - statistics.median(
        r["run_s"] for r in untraced
    )
    metrics["trace.overhead_s"] = {"value": overhead, "n": len(traced) + len(untraced)}
    return metrics


def write_report(args, cfg_dict: dict, setup: list[float], reps: list[dict], metrics: dict,
                 units: dict, info: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": info,
        "config": cfg_dict,
        "setup_s": setup,
        "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "metrics": {name: dict(m, unit=units[name]) for name, m in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        fields = ("rep", "id", "parent", "name", "start", "end", "thread")
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for i, rep in enumerate(reps):
                for span in rep.get("spans", ()):
                    fh.write(json.dumps(dict(zip(fields, (i, *span)))) + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "fedboost" / "runner.py").is_file():
        print(f"error: no fedboost sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fedboost
    from fedboost import runner
    from fedboost.config import config_from_dict, config_to_dict

    if Path(fedboost.__file__).resolve().parent != SRC / "fedboost":
        print(f"error: imported fedboost from {fedboost.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cfg = make_config(args.workload, args.seed)
    cfg_dict = config_to_dict(cfg)
    if config_from_dict(json.loads(json.dumps(cfg_dict))) != cfg:
        print("error: the workload config does not survive a JSON round trip", file=sys.stderr)
        return 2
    splits = runner.build_splits(cfg)
    train_rows = sum(len(s.train) for s in splits)
    train_steps = cfg.rounds * cfg.epochs * sum(
        math.ceil(len(s.train) / cfg.batch_size) for s in splits
    )
    panel = [make_config(args.workload, seed) for seed in range(SETUP_PANEL)]
    passes = [setup_pass(panel)]
    while time.perf_counter() - started < SETUP_MIN_SECONDS:
        passes.append(setup_pass(panel))

    # Closed loop: a repetition, then a set-up pass, until the next pair
    # would end after --seconds.
    reps: list[dict] = []
    pair_s: list[float] = []
    min_reps = 2 if args.trace else 1
    while True:
        pair_start = time.perf_counter()
        reps.append(run_rep(cfg_dict, traced=bool(args.trace) and len(reps) % 2 == 1))
        passes.append(setup_pass(panel))
        pair_s.append(time.perf_counter() - pair_start)
        if (len(reps) >= min_reps
                and time.perf_counter() + statistics.median(pair_s) > started + args.seconds):
            break
    setup = setup_times(passes)
    check_reps(reps)
    good = [r for r in reps if not r["problems"]]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    failed = len(reps) - len(good)

    info = machine_info()
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    print(f"workload {args.workload}: {whys[args.workload]}")
    print(f"seed {args.seed}, trace {args.trace}, took {time.perf_counter() - started:.1f} s; "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    for i, rep in enumerate(reps):
        for problem in rep["problems"]:
            print(f"repetition {i} failed: {problem}")
    if not untraced or (args.trace and not traced):
        print("error: no successful repetition to report", file=sys.stderr)
        return 1

    metrics = end_to_end(untraced, setup, cfg, train_rows)
    section = "end_to_end"
    if args.trace:
        metrics = per_layer(reps, traced, untraced, cfg, train_steps)
        section = "per_layer"
        if cfg.transport == "tcp":
            print("note: TCP clients are spawned processes the tracer does not reach; their "
                  "work shows only as transport.recv_wait_s")
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    if set(metrics) != set(units):
        print(f"error: computed {section} metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    metrics["failed_run_frac"] = {"value": failed / len(reps), "n": len(reps)}
    units["failed_run_frac"] = "fraction"
    if not args.trace:
        # Printed and reported, not in BENCHMARK.json: the raw wall time and
        # the reference time it was scaled by.
        metrics["wall_run_s"] = summary([r["run_s"] for r in untraced])
        metrics["reference_s"] = summary([r["ref_s"] for r in untraced])
        units["wall_run_s"] = units["reference_s"] = "s"
    print(f"{'metric':40} {'median':>14} {'unit':>9} {'n':>3} {'min':>14} {'max':>14}")
    for name, unit in units.items():
        m = metrics[name]
        print(f"{name:40} {m['value']:14.6g} {unit:>9} {m['n']:3d} "
              f"{m.get('min', m['value']):14.6g} {m.get('max', m['value']):14.6g}")
    write_report(args, cfg_dict, setup, reps, metrics, units, info)

    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in SPEC[section]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
