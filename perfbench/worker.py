"""One repetition of a benchmark workload, in a process of its own.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``. Reads a JSON request
on stdin, ``{"config": <ExperimentConfig as a dict>, "trace": <bool>}``, runs
``fedboost.runner.run_experiment`` once between two timings of the reference
kernel (``reference.py``), checks the result and prints one JSON line: run
time, reference time, peak memory, frames per message kind, a digest of the
run's metrics, problems found, and the spans when tracing is on. A run that
raises is a problem, not a crash: the line then holds the problems and the
frames and timeouts seen up to the failure.

A process per repetition gives peak memory its own scope: ``ru_maxrss`` only
ever rises within a process, and ``RUSAGE_CHILDREN`` adds the spawned TCP
clients once they are reaped. The entry point is guarded because the TCP
transport starts clients with the ``spawn`` method, which re-imports this
module in every client.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import multiprocessing.resource_tracker
import resource
import sys
import threading
import time


def check_result(cfg, result) -> list[str]:
    """Problems with one run's output; an empty list means it is correct."""
    problems = []
    rounds = [rec.round for rec in result.records]
    if rounds != list(range(1, cfg.rounds + 1)):
        problems.append(f"completed rounds {rounds}, configured {cfg.rounds}")
    losses = [result.final_test_loss]
    for rec in result.records:
        losses += rec.train_losses + [rec.global_test_loss]
        losses += [v for row in rec.validation or [] for v in row]
    if not all(math.isfinite(x) for x in losses):
        problems.append("a training, validation or test loss is not finite")
    if not all(math.isfinite(x) for x in result.final_params.values):
        problems.append("the final model has non-finite weights")
    if not 0.0 <= result.final_test_acc <= 1.0:
        problems.append(f"final test accuracy {result.final_test_acc} outside [0, 1]")
    return problems


def leftovers() -> list[str]:
    """Client threads or processes that outlived the run."""
    problems = []
    threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if threads:
        problems.append(f"threads alive after the run: {threads}")
    children = multiprocessing.active_children()
    if children:
        problems.append(f"child processes alive after the run: {[p.pid for p in children]}")
    return problems


def result_digest(result, wire: dict) -> str:
    """Hash of everything metrics.csv and records.json would hold, plus the
    final model and the frame counts; equal seeds must give equal digests."""
    doc = {
        "records": [
            [r.round, r.train_losses, r.validation, r.weights, r.global_test_loss, r.global_test_acc]
            for r in result.records
        ],
        "final_params": [float(x) for x in result.final_params.values],
        "wire": wire,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main() -> None:
    import reference
    import tracing
    from fedboost import runner
    from fedboost.config import config_from_dict
    from fedboost.errors import TransportTimeout

    request = json.load(sys.stdin)
    cfg = config_from_dict(request["config"])
    wire = tracing.WireCounter()
    wire.install()
    run_experiment = runner.run_experiment
    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        run_experiment = tracer.wrap("runner.run_experiment", run_experiment)

    # Clients that share this interpreter: loopback clients are threads of
    # this process, TCP clients are processes of their own.
    ref_threads = len(cfg.clients) if cfg.transport == "loopback" else 1
    ref_before = reference.reference_s(ref_threads)
    start = time.perf_counter()
    try:
        result = run_experiment(cfg)
    except Exception as exc:  # reported below, with the frames seen so far
        result = None
        problems = [f"run_experiment raised {type(exc).__name__}: {exc}"]
        # A recv timeout reaches here as RoundAborted and was counted by the
        # endpoint; a TransportTimeout itself comes from the TCP accept.
        if isinstance(exc, TransportTimeout):
            wire.timeouts += 1
    else:
        problems = check_result(cfg, result)
    run_s = time.perf_counter() - start
    ref_after = reference.reference_s(ref_threads)

    problems += leftovers()
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Spawning the TCP clients started multiprocessing's resource tracker.
    # Stop and reap it here, so that no process of the run outlives the worker.
    multiprocessing.resource_tracker._resource_tracker._stop()
    out = {"wire": wire.to_dict(), "problems": problems}
    if result is not None:
        out.update(
            run_s=run_s,
            ref_s=(ref_before + ref_after) / 2,
            peak_rss_mb=(self_kib + children_kib) / 1024,
            final_test_acc=result.final_test_acc,
            digest=result_digest(result, wire.to_dict()),
        )
    if tracer is not None:
        out["spans"] = tracer.spans
        out["items"] = dict(tracer.items)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
