"""Experiment orchestration: build client data, host a protocol run over the
chosen transport (or train centralized), score the global model per round on
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
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import nn, paillier
from .config import ExperimentConfig, GridSpec, save_config
from .datasets import DatasetSplit, LabeledData, generate_client_dataset, poison_labels, split
from .errors import ConfigError, IoError, ProtocolViolation
from .protocol import (
    ClientSession,
    ProtocolSettings,
    ServerRunResult,
    client_run,
    decode_gradient_payload,
    derive_seed,
    server_run,
)
from .transport import loopback_pair, tcp_connect, tcp_listen


@dataclass
class RoundRecord:
    """One completed round: client losses, boost weights when applicable, and
    the post-merge global model's combined-test performance."""

    round: int
    train_losses: list[float]
    validation: list[list[float]] | None
    weights: list[float] | None
    global_test_loss: float
    global_test_acc: float
    durations: dict[str, float] = field(default_factory=dict)


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
    settings: ProtocolSettings, splits: list[DatasetSplit], transcript: list | None
) -> tuple[ServerRunResult, paillier.KeyPair | None]:
    """The server's result and client 1's key pair (None without encryption)."""
    server_eps = {}
    sessions = []
    workers = []
    try:
        for cid in range(1, settings.n_clients + 1):
            server_ep, client_ep = loopback_pair(capacity=64)
            server_eps[cid] = server_ep
            sessions.append(ClientSession(settings, cid, splits[cid - 1]))
            worker = threading.Thread(
                target=client_run, args=(sessions[-1], client_ep), daemon=True
            )
            workers.append(worker)
            worker.start()
        return server_run(settings, server_eps, transcript), sessions[0].keypair
    finally:
        for ep in server_eps.values():
            ep.close()
        for worker in workers:
            worker.join(timeout=10)


def _client_process_main(host: str, port: int, cfg: ExperimentConfig, client_id: int) -> None:
    settings = cfg.to_protocol_settings()
    session = ClientSession(settings, client_id, build_client_split(cfg, client_id))
    endpoint = tcp_connect(f"{host}:{port}", timeout=settings.timeout_s)
    try:
        client_run(session, endpoint)
    finally:
        endpoint.close()


def _run_tcp(
    cfg: ExperimentConfig,
    settings: ProtocolSettings,
    transcript: list | None,
) -> ServerRunResult:
    listener = tcp_listen((cfg.tcp_host, cfg.tcp_port))
    host, port = listener.address
    ctx = multiprocessing.get_context("spawn")
    procs = []
    server_eps = {}
    try:
        # clients are launched one at a time, so accept order identifies them
        for cid in range(1, settings.n_clients + 1):
            proc = ctx.Process(
                target=_client_process_main, args=(host, port, cfg, cid), daemon=True
            )
            proc.start()
            procs.append(proc)
            server_eps[cid] = listener.accept(timeout=settings.timeout_s)
        return server_run(settings, server_eps, transcript)
    finally:
        listener.close()
        for ep in server_eps.values():
            ep.close()
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()


# --- experiment driver -----------------------------------------------------------


def _protocol_records(
    result: ServerRunResult, test: LabeledData, keypair: paillier.KeyPair | None
) -> list[RoundRecord]:
    shadow = result.initial_weights
    records = []
    for sr in result.rounds:
        g = decode_gradient_payload(sr.merged_gradient, keypair)
        shadow = nn.apply_gradient(shadow, g)
        loss, acc = nn.evaluate(shadow, test)
        records.append(
            RoundRecord(
                round=sr.round,
                train_losses=sr.train_losses,
                validation=sr.validation,
                weights=sr.weights,
                global_test_loss=loss,
                global_test_acc=acc,
                durations=sr.durations,
            )
        )
    if not np.array_equal(shadow.values, result.final_weights.values):
        raise ProtocolViolation("decrypted final model disagrees with the merged trajectory")
    return records


def _run_centralized(
    cfg: ExperimentConfig, splits: list[DatasetSplit], test: LabeledData
) -> tuple[list[RoundRecord], nn.ModelParams]:
    layout = nn.mlp_layout(2, cfg.n_hidden, 2)
    params = nn.init_params(derive_seed(cfg.master_seed, "init"), layout)
    pooled = DatasetSplit(
        train=LabeledData.concat([s.train for s in splits]),
        validation=splits[0].validation,
        test=test,
    )
    opt = nn.OptimizerConfig(kind="adam", learning_rate=cfg.learning_rate)
    records = []
    for r in range(1, cfg.rounds + 1):
        report = nn.train_local(
            params,
            pooled,
            cfg.batch_size,
            cfg.epochs,
            opt,
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
        settings = cfg.to_protocol_settings()
        if cfg.transport == "tcp":
            run = _run_tcp(cfg, settings, transcript)
            keypair = (
                paillier.keygen(cfg.key_bits, derive_seed(cfg.master_seed, "keygen"))
                if settings.encrypted
                else None
            )
        else:
            run, keypair = _run_loopback(settings, splits, transcript)
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
    layout = nn.Layout(tuple(tuple(layer) for layer in doc["layout"]))
    return nn.ModelParams(np.array(doc["values"], dtype=np.float64), layout)


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
