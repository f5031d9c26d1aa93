"""Experiment orchestration: build client data, host a protocol run over the
chosen transport (clients in the server's thread on loopback, one process per
client over TCP) or train centralized, score the global model per round on
the combined test set, and export metrics/model/boundary artifacts.

Per-round test metrics are computed by this harness: in encrypted modes the
server cannot decrypt, so the harness scores rounds with the cohort key pair
purely for measurement. On loopback it reads client 1's key pair; TCP clients
are separate processes, so there it re-derives the key pair from the master
seed (the same derivation client 1 uses).
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn, paillier
from .config import ExperimentConfig, GridSpec, save_config
from .datasets import DatasetSplit, LabeledData, generate_client_dataset, poison_labels, split
from .errors import (
    ConfigError,
    FedBoostError,
    IoError,
    ProtocolViolation,
    RoundAborted,
    TransportTimeout,
)
from .protocol import (
    ClientSession,
    InThreadEndpoint,
    RoundRecord,
    ServerRunResult,
    client_run,
    decode_gradient_payload,
    derive_seed,
    server_run,
)
from .transport import tcp_connect, tcp_listen


@dataclass
class ExperimentResult:
    records: list[RoundRecord]
    final_params: nn.ModelParams
    final_test_loss: float
    final_test_acc: float
    transcript: list | None = None


def build_client_split(cfg: ExperimentConfig, client_id: int) -> DatasetSplit:
    spec = cfg.clients[client_id - 1]
    data = generate_client_dataset(list(spec.clusters), spec.seed)
    parts = split(
        data, cfg.train_frac, cfg.val_frac_of_train, derive_seed(cfg.master_seed, "split", client_id)
    )
    if spec.poison_flip_frac > 0:
        parts = DatasetSplit(
            train=poison_labels(
                parts.train, spec.poison_flip_frac, derive_seed(cfg.master_seed, "poison", client_id)
            ),
            validation=parts.validation,
            test=parts.test,
        )
    return parts


def build_splits(cfg: ExperimentConfig) -> list[DatasetSplit]:
    return [build_client_split(cfg, cid) for cid in range(1, len(cfg.clients) + 1)]


def combined_test_set(splits: list[DatasetSplit]) -> LabeledData:
    return LabeledData.concat([s.test for s in splits])


# --- transports ----------------------------------------------------------------


def _run_loopback(
    cfg: ExperimentConfig, splits: list[DatasetSplit], transcript: list | None
) -> tuple[ServerRunResult, paillier.KeyPair | None]:
    """The server's result and client 1's key pair (None without encryption).
    Clients run in this thread: numpy on batch-sized arrays holds the GIL, so
    client threads would train no faster; TCP trains clients in parallel."""
    sessions = [ClientSession(cfg, cid, splits[cid - 1]) for cid in range(1, cfg.n_clients + 1)]
    endpoints = {s.client_id: InThreadEndpoint(s) for s in sessions}
    return server_run(cfg, endpoints, transcript), sessions[0].keypair


def _client_process_main(host: str, port: int, cfg: ExperimentConfig, client_id: int) -> None:
    session = ClientSession(cfg, client_id, build_client_split(cfg, client_id))
    endpoint = tcp_connect(f"{host}:{port}", timeout=cfg.timeout_s)
    try:
        client_run(session, endpoint)
    finally:
        endpoint.close()


def _run_tcp(cfg: ExperimentConfig, transcript: list | None) -> ServerRunResult:
    # imported here: loopback runs and the client processes never wait on a sentinel
    from multiprocessing.connection import wait

    listener = tcp_listen((cfg.tcp_host, cfg.tcp_port))
    host, port = listener.address
    ctx = multiprocessing.get_context("spawn")
    procs = []
    server_eps = {}
    try:
        # clients are launched one at a time, so accept order identifies them
        for cid in range(1, cfg.n_clients + 1):
            proc = ctx.Process(
                target=_client_process_main, args=(host, port, cfg, cid), daemon=True
            )
            proc.start()
            procs.append(proc)
            # a client that exits before it connects ends the wait at once
            ready = wait([listener, proc.sentinel], timeout=cfg.timeout_s)
            if listener in ready:
                server_eps[cid] = listener.accept(timeout=cfg.timeout_s)
            elif ready:
                proc.join()
                raise RoundAborted(
                    f"client {cid} exited with code {proc.exitcode} before connecting"
                )
            else:
                raise TransportTimeout(f"client {cid} did not connect within {cfg.timeout_s}s")
        return server_run(cfg, server_eps, transcript)
    finally:
        listener.close()
        for ep in server_eps.values():
            ep.close()
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()


# --- experiment driver -----------------------------------------------------------


def _protocol_records(
    result: ServerRunResult, test: LabeledData, keypair: paillier.KeyPair | None
) -> list[RoundRecord]:
    """The server's records, scored on ``test`` after each round's merge."""
    shadow = result.initial_weights
    for record, merged in zip(result.rounds, result.merged_gradients):
        shadow = nn.apply_gradient(shadow, decode_gradient_payload(merged, keypair))
        record.global_test_loss, record.global_test_acc = nn.evaluate(shadow, test)
    if not np.array_equal(shadow.values, result.final_weights.values):
        raise ProtocolViolation("decrypted final model disagrees with the merged trajectory")
    return result.rounds


def _run_centralized(
    cfg: ExperimentConfig, splits: list[DatasetSplit], test: LabeledData
) -> tuple[list[RoundRecord], nn.ModelParams]:
    params = nn.init_params(derive_seed(cfg.master_seed, "init"), cfg.layout)
    pooled = DatasetSplit(
        train=LabeledData.concat([s.train for s in splits]),
        validation=splits[0].validation,
        test=test,
    )
    records = []
    for r in range(1, cfg.rounds + 1):
        report = nn.train_local(
            params,
            pooled,
            cfg.batch_size,
            cfg.epochs,
            cfg.optimizer,
            derive_seed(cfg.master_seed, "shuffle", r, 0),
        )
        params = nn.apply_gradient(params, report.gradient)
        loss, acc = nn.evaluate(params, test)
        records.append(
            RoundRecord(
                round=r,
                train_losses=[report.training_loss],
                validation=None,
                weights=None,
                global_test_loss=loss,
                global_test_acc=acc,
            )
        )
    return records, params


def run_experiment(cfg: ExperimentConfig, keep_transcript: bool = False) -> ExperimentResult:
    """Run one configured experiment end to end and write artifacts to
    cfg.out_dir when set."""
    cfg.validate()
    splits = build_splits(cfg)
    test = combined_test_set(splits)
    transcript: list | None = [] if keep_transcript else None

    if cfg.aggregator == "centralized":
        records, final = _run_centralized(cfg, splits, test)
    else:
        if cfg.transport == "tcp":
            run = _run_tcp(cfg, transcript)
            keypair = (
                paillier.keygen(cfg.key_bits, derive_seed(cfg.master_seed, "keygen"))
                if cfg.encrypted
                else None
            )
        else:
            run, keypair = _run_loopback(cfg, splits, transcript)
        records = _protocol_records(run, test, keypair)
        final = run.final_weights

    result = ExperimentResult(
        records=records,
        final_params=final,
        final_test_loss=records[-1].global_test_loss,
        final_test_acc=records[-1].global_test_acc,
        transcript=transcript,
    )
    if cfg.out_dir:
        write_outputs(cfg, result)
    return result


# --- artifact export --------------------------------------------------------------


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
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write metrics to {path}: {exc}") from exc


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
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write boundary grid to {path}: {exc}") from exc


def save_model(params: nn.ModelParams, path) -> None:
    doc = {
        "layout": [list(layer) for layer in params.layout.layers],
        "values": [float(x) for x in params.values],
    }
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write model to {path}: {exc}") from exc


def load_model(path) -> nn.ModelParams:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read model from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        layout = nn.Layout(tuple(tuple(layer) for layer in doc["layout"]))
        return nn.ModelParams(np.array(doc["values"], dtype=np.float64), layout)
    except (KeyError, TypeError, ValueError, FedBoostError) as exc:
        raise IoError(f"model file {path} is malformed: {type(exc).__name__}: {exc}") from exc


def write_outputs(cfg: ExperimentConfig, result: ExperimentResult) -> None:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    export_metrics(result.records, out / "metrics.csv")
    save_model(result.final_params, out / "model.json")
    save_config(cfg, out / "config.json")
    try:
        with open(out / "records.json", "w") as fh:
            json.dump([asdict(r) for r in result.records], fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write records to {out}: {exc}") from exc
