"""Experiment orchestration: build client data, host a protocol run over the
chosen transport (loopback: clients as one cohort in the server's thread, sent
(kind, body) pairs; TCP: one forked process per client, holding the client end
of the k-th pair ``transport.tcp_pairs`` made before the first fork), score
the global model per round on the combined test set, and export
metrics/model/boundary artifacts. Centralized training is a cohort of one
trainer holding the pooled training data, on either transport. A TCP client
ends by exiting, which closes its end; the runner joins every client under one
grace deadline, then terminates any still running.

The runner generates the cohort key pair and builds every client's split once,
before either transport starts, and hands each client both in its session. A
TCP client is forked (POSIX only) and inherits them in the runner's memory,
which stands in for the secure channel the clients share, so the key pair
never crosses the server; only the socket is the simulated boundary. Per-round
test metrics are computed by this harness: in encrypted modes the server cannot
decrypt, so the harness scores rounds with that key pair purely for measurement.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import nn, paillier
from .config import ExperimentConfig, GridSpec, config_to_dict
from .datasets import DatasetSplit, LabeledData, generate_client_dataset, poison_labels, split
from .errors import (
    ConfigError,
    EmptyDataset,
    FedBoostError,
    InvalidLayout,
    IoError,
    ProtocolViolation,
    RoundAborted,
)
from .protocol import (
    ClientSession,
    InThreadCohort,
    RoundRecord,
    ServerRunResult,
    client_run,
    decode_gradient_payload,
    derive_seed,
    largest_body,
    server_run,
)
from .quantize import QuantConfig
from .transport import TcpEndpoint, tcp_pairs

# How long a failed TCP run waits on the other clients before naming the dead
_EXIT_GRACE_S = 1.0


@dataclass
class ExperimentResult:
    records: list[RoundRecord]
    final_params: nn.ModelParams
    final_test_loss: float
    final_test_acc: float


def build_splits(cfg: ExperimentConfig) -> list[DatasetSplit]:
    splits = []
    for client_id, spec in enumerate(cfg.clients, 1):
        seed = derive_seed(cfg.master_seed, "split", client_id)
        try:
            data = generate_client_dataset(list(spec.clusters), spec.seed)
            parts = split(data, train_frac=0.9, val_frac_of_train=0.1, seed=seed)
        except (EmptyDataset, MemoryError) as exc:  # too few to split, or a count beyond memory
            raise ConfigError(f"clients[{client_id - 1}].clusters", str(exc)) from exc
        if spec.poison_flip_frac > 0:
            seed = derive_seed(cfg.master_seed, "poison", client_id)
            parts = replace(parts, train=poison_labels(parts.train, spec.poison_flip_frac, seed))
        splits.append(parts)
    return splits


def combined_test_set(splits: list[DatasetSplit]) -> LabeledData:
    return LabeledData.concat([s.test for s in splits])


# --- transports ----------------------------------------------------------------


def _client_process_main(endpoint, cfg: ExperimentConfig, client_id: int, split, keypair) -> None:
    """A forked TCP client: run its session on the endpoint, split and key pair
    it inherited from the runner, none of them pickled; exiting closes its end."""
    client_run(ClientSession(cfg, client_id, split, keypair), endpoint)


def _forked_client(own: TcpEndpoint, inherited: list[TcpEndpoint], *args) -> None:
    """Release this process's copy of every connection but its own, so a death
    or close at either end of another reaches its peer, then run the client."""
    for endpoint in inherited:
        if endpoint is not own:
            endpoint.release()  # a shutdown would end the connection for every holder
    _client_process_main(own, *args)


@contextmanager
def _tcp_endpoints(cfg: ExperimentConfig, splits: list[DatasetSplit], keypair: paillier.KeyPair | None):
    """The server's endpoints to one forked process per client. Every pair is
    made before the first fork, and client k is forked holding the client end
    of the k-th; on exit all clients get one grace period to end, and a client
    that exited with an error code fails the run."""
    ctx = multiprocessing.get_context("fork")
    pairs = tcp_pairs(len(splits), cfg.timeout_s, largest_body(cfg))
    server_eps = {cid: server for cid, (server, _) in enumerate(pairs, 1)}
    client_eps = [client for _, client in pairs]
    inherited = [end for pair in pairs for end in pair]
    procs, aborted = {}, None
    try:
        for cid, (split, own) in enumerate(zip(splits, client_eps), 1):
            args = (own, inherited, cfg, cid, split, keypair)
            proc = ctx.Process(target=_forked_client, args=args, daemon=True)
            proc.start()
            procs[cid] = proc  # only once started: one whose fork failed cannot be joined
        # only after every start: a fork that a caller defers still inherits its end
        for ep in client_eps:
            ep.release()
        try:
            yield server_eps
        except RoundAborted as exc:
            aborted = exc
    finally:
        for ep in client_eps:
            ep.release()
        # an aborted run's clients have an ABORT to read; a close ends any other waiting client
        for ep in [] if aborted else server_eps.values():
            ep.close()
        deadline = time.monotonic() + _EXIT_GRACE_S
        for proc in procs.values():
            proc.join(max(0.0, deadline - time.monotonic()))
        # read before any terminate, so a hung client is not named as dead
        died = [f"client {c} exited with code {p.exitcode}" for c, p in procs.items() if p.exitcode]
        for ep in server_eps.values():
            ep.close()
        for proc in procs.values():
            proc.terminate()  # nothing to one already reaped
            proc.join()
    if died:  # a finished run fails too: its clients must all end cleanly
        raise RoundAborted("; ".join([str(aborted), *died] if aborted else died)) from aborted
    if aborted:
        raise aborted


# --- experiment driver -----------------------------------------------------------


def _protocol_records(
    cfg: ExperimentConfig,
    result: ServerRunResult,
    test: LabeledData,
    keypair: paillier.KeyPair | None,
) -> list[RoundRecord]:
    """The server's records, scored on ``test`` after each round's merge."""
    shadow = nn.init_params(derive_seed(cfg.master_seed, "init"), cfg.layout)
    merged_quant = QuantConfig(cfg.quant.scale_exponent, pieces=1)
    for record, merged in zip(result.rounds, result.merged_gradients):
        g = decode_gradient_payload(merged, keypair, cfg.layout.size, merged_quant)
        shadow = nn.apply_gradient(shadow, g)
        record.global_test_loss, record.global_test_acc = nn.evaluate(shadow, test)
    if not np.array_equal(shadow.values, result.final_weights.values):
        raise ProtocolViolation("decrypted final model disagrees with the merged trajectory")
    return result.rounds


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one configured experiment end to end and write artifacts to
    cfg.out_dir when set."""
    cfg.validate()
    splits = build_splits(cfg)
    test = combined_test_set(splits)
    seed = derive_seed(cfg.master_seed, "keygen")
    keypair = paillier.keygen(cfg.key_bits, seed) if cfg.encrypted else None

    if cfg.aggregator == "centralized":
        # one trainer on the pooled training data
        pooled = LabeledData.concat([s.train for s in splits])
        splits = [DatasetSplit(pooled, splits[0].validation, test)]
    if cfg.transport == "tcp":
        cohort = _tcp_endpoints(cfg, splits, keypair)
    else:
        # one cohort in this thread, trained in one stacked step per round, shares
        # numpy's per-call overhead, most of a batch-sized step's cost
        sessions = [ClientSession(cfg, cid, split, keypair) for cid, split in enumerate(splits, 1)]
        cohort = nullcontext(InThreadCohort(sessions).endpoints)
    with cohort as endpoints:
        run = server_run(cfg, endpoints)
    records = _protocol_records(cfg, run, test, keypair)

    last = records[-1]
    result = ExperimentResult(records, run.final_weights, last.global_test_loss, last.global_test_acc)
    if cfg.out_dir:
        write_outputs(cfg, result)
    return result


# --- artifact export --------------------------------------------------------------


def _write(path, text: str, what: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc


def export_metrics(records: list[RoundRecord], path) -> None:
    """Deterministic CSV, one row per (round, client); re-export is byte-identical."""
    if not records:
        raise ValueError("no records to export")
    lines = ["round,client,train_loss,weight,global_test_loss,global_test_acc"]
    for rec in records:
        n = len(rec.train_losses)
        for i, t_loss in enumerate(rec.train_losses):
            weight = rec.weights[i] if rec.weights is not None else 1.0 / n
            lines.append(
                f"{rec.round},{i + 1},{t_loss!r},{weight!r},"
                f"{rec.global_test_loss!r},{rec.global_test_acc!r}"
            )
    _write(path, "\n".join(lines) + "\n", "metrics")


def export_boundary(params: nn.ModelParams, grid: GridSpec, path) -> None:
    """Class-1 probability over a steps x steps lattice, rows y-major."""
    if grid.steps < 2:
        raise ConfigError("steps", f"must be >= 2, got {grid.steps}")
    if not (grid.xmin < grid.xmax) or not (grid.ymin < grid.ymax):
        raise ConfigError("grid", "ranges must be non-degenerate (min < max)")
    xs = np.linspace(grid.xmin, grid.xmax, grid.steps)
    ys = np.linspace(grid.ymin, grid.ymax, grid.steps)
    lines = ["x,y,p_class1"]
    # one forward call per point: the file then matches forward() bit-for-bit
    for y in ys:
        for x in xs:
            p = nn.forward(params, (x, y))[1]
            lines.append(f"{float(x)!r},{float(y)!r},{float(p)!r}")
    _write(path, "\n".join(lines) + "\n", "boundary grid")


def save_model(params: nn.ModelParams, path) -> None:
    doc = {
        "layout": [list(layer) for layer in params.layout.layers],
        "values": [float(x) for x in params.values],
    }
    _write(path, json.dumps(doc, sort_keys=True) + "\n", "model")


def load_model(path) -> nn.ModelParams:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read model from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        layout = nn.Layout(doc["layout"][0][1])
        if doc["layout"] != [list(layer) for layer in layout.layers]:
            raise InvalidLayout(f"layout {doc['layout']} is not [[2, h], [h, 2]]")
        return nn.ModelParams(np.array(doc["values"], dtype=np.float64), layout)
    except (KeyError, IndexError, TypeError, ValueError, FedBoostError) as exc:
        raise IoError(f"model file {path} is malformed: {type(exc).__name__}: {exc}") from exc


def write_outputs(cfg: ExperimentConfig, result: ExperimentResult) -> None:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    export_metrics(result.records, out / "metrics.csv")
    save_model(result.final_params, out / "model.json")
    records = [asdict(r) for r in result.records]
    for name, doc in (("config", config_to_dict(cfg)), ("records", records)):
        _write(out / f"{name}.json", json.dumps(doc, indent=2, sort_keys=True) + "\n", name)
