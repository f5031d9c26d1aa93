"""Experiment orchestration: build client data, host a protocol run over the
chosen transport (clients as one cohort in the server's thread on loopback,
one process per client over TCP), score the global model per round on the combined test set,
and export metrics/model/boundary artifacts. Centralized training is a cohort
of one trainer holding the pooled training data, run on loopback.

The runner generates the cohort key pair once, before either transport
starts, and hands it to every client in its session; over TCP it travels in
the spawned process's arguments, which stand in for the secure channel the
clients share, so it never crosses the server. Per-round test metrics are
computed by this harness: in encrypted modes the server cannot decrypt, so the
harness scores rounds with that key pair purely for measurement.
"""

from __future__ import annotations

import json
import multiprocessing
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
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
    TransportTimeout,
)
from .protocol import (
    ClientSession,
    InThreadCohort,
    RoundRecord,
    ServerRunResult,
    client_run,
    decode_gradient_payload,
    derive_seed,
    server_run,
)
from .quantize import QuantConfig
from .transport import tcp_connect, tcp_listen

# How long an aborted TCP run waits for each client to exit before naming the dead
_EXIT_GRACE_S = 1.0


@dataclass
class ExperimentResult:
    records: list[RoundRecord]
    final_params: nn.ModelParams
    final_test_loss: float
    final_test_acc: float


def build_client_split(cfg: ExperimentConfig, client_id: int) -> DatasetSplit:
    spec = cfg.clients[client_id - 1]
    seed = derive_seed(cfg.master_seed, "split", client_id)
    try:
        data = generate_client_dataset(list(spec.clusters), spec.seed)
        parts = split(data, train_frac=0.9, val_frac_of_train=0.1, seed=seed)
    except (EmptyDataset, MemoryError) as exc:  # too few to split, or a count beyond memory
        raise ConfigError(f"clients[{client_id - 1}].clusters", str(exc)) from exc
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


def _client_process_main(
    address: tuple[str, int],
    cfg: ExperimentConfig,
    client_id: int,
    keypair: paillier.KeyPair | None,
) -> None:
    """A TCP client: connect first, then build the data split, so the spawn
    argument stays small and the one-at-a-time launch does not wait on it."""
    endpoint = tcp_connect(address, timeout=cfg.timeout_s)
    try:
        session = ClientSession(cfg, client_id, build_client_split(cfg, client_id), keypair)
        client_run(session, endpoint)
    finally:
        endpoint.close()


@contextmanager
def _tcp_endpoints(cfg: ExperimentConfig, keypair: paillier.KeyPair | None):
    """The server's endpoints to one spawned process per client, each joined on exit."""
    # imported here: loopback runs and the client processes never wait on a sentinel
    from multiprocessing.connection import wait

    listener = tcp_listen((cfg.tcp_host, cfg.tcp_port))
    ctx = multiprocessing.get_context("spawn")
    procs = []
    server_eps = {}
    try:
        # clients are launched one at a time, so accept order identifies them
        for cid in range(1, cfg.n_clients + 1):
            proc = ctx.Process(
                target=_client_process_main,
                args=(listener.address, cfg, cid, keypair),
                daemon=True,
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
        try:
            yield server_eps
        except RoundAborted as exc:
            # a client that died mid-run has usually exited by the time its channel closes
            for proc in procs:
                proc.join(timeout=_EXIT_GRACE_S)
            dead = [
                f"client {cid} exited with code {p.exitcode}"
                for cid, p in enumerate(procs, 1)
                if p.exitcode not in (None, 0)
            ]
            if dead:
                raise RoundAborted("; ".join([str(exc), *dead])) from exc
            raise
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
    keypair = (
        paillier.keygen(cfg.key_bits, derive_seed(cfg.master_seed, "keygen"))
        if cfg.encrypted
        else None
    )

    if cfg.aggregator == "centralized":
        # one trainer on the pooled training data, on loopback whatever the transport
        pooled = LabeledData.concat([s.train for s in splits])
        splits = [DatasetSplit(pooled, splits[0].validation, test)]
    if cfg.transport == "tcp" and cfg.aggregator != "centralized":
        cohort = _tcp_endpoints(cfg, keypair)
    else:
        # one cohort in this thread, trained in one stacked step per round, shares
        # numpy's per-call overhead, most of a batch-sized step's cost
        sessions = [ClientSession(cfg, cid, split, keypair) for cid, split in enumerate(splits, 1)]
        cohort = nullcontext(InThreadCohort(sessions).endpoints)
    with cohort as endpoints:
        run = server_run(cfg, endpoints)
    records = _protocol_records(cfg, run, test, keypair)

    result = ExperimentResult(
        records=records,
        final_params=run.final_weights,
        final_test_loss=records[-1].global_test_loss,
        final_test_acc=records[-1].global_test_acc,
    )
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
