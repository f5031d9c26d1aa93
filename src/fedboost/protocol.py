"""Round protocol between the aggregation server and training clients.

Flow per round: the server broadcasts the previous merged gradient (round 1:
the initial weights), every client trains locally and uploads its gradient with
its training loss, the server builds per-model cross-validation payloads
(perturbed under homomorphic ops when fusion is on), clients return validation
losses, the server computes aggregation weights and merges. After the last
round a designated client decrypts the merged result and returns the final
weights, since the server itself never holds secret key material.

Wire bodies are canonical JSON (alphabetical keys, compact separators); big
integers travel as hex strings and floats as shortest round-trip decimals, so
transcripts are byte-reproducible across transports.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import aggregate as agg
from . import nn
from . import paillier
from . import quantize as qz
from .datasets import DatasetSplit
from .errors import (
    FedBoostError,
    KeyMismatch,
    ProtocolViolation,
    RoundAborted,
    TransportError,
)
from .transport import encode_frame

SERVER_ID = 0
DESIGNATED_DECRYPTOR = 1


class MessageKind(IntEnum):
    KEY_OFFER = 1
    KEY_DELIVER = 2
    GLOBAL_GRADIENT = 3
    TRAIN_RESULT = 4
    FUSED_GRADIENT = 5
    EVAL_RESULT = 6
    MERGED_GRADIENT = 7
    FINAL_MODEL_REQUEST = 8
    FINAL_MODEL = 9
    ABORT = 10


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    round: int
    sender: int
    payload: dict


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def encode_message(msg: Message) -> tuple[int, bytes]:
    body = canonical_json({"payload": msg.payload, "round": msg.round, "sender": msg.sender})
    return int(msg.kind), body


def decode_message(kind: int, body: bytes) -> Message:
    try:
        mk = MessageKind(kind)
    except ValueError:
        raise ProtocolViolation(f"unknown message kind byte {kind}") from None
    try:
        data = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolViolation(f"malformed message body: {exc}") from exc
    if (
        not isinstance(data, dict)
        or set(data) != {"payload", "round", "sender"}
        or not isinstance(data["payload"], dict)
        or not isinstance(data["round"], int)
        or not isinstance(data["sender"], int)
    ):
        raise ProtocolViolation("message body must carry payload/round/sender")
    return Message(kind=mk, round=data["round"], sender=data["sender"], payload=data["payload"])


def derive_seed(master: int, *tags) -> int:
    """Stable sub-seed for a named purpose, e.g. ('shuffle', round, client)."""
    digest = hashlib.sha256(repr((master,) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# --- gradient payload codec -------------------------------------------------


def gradient_to_payload(g) -> dict:
    if isinstance(g, np.ndarray):
        return {"format": "plain", "values": [float(x) for x in g]}
    if isinstance(g, qz.QuantizedGradient):
        return {
            "format": "quantized",
            "pieces": g.config.pieces,
            "scale_exponent": g.config.scale_exponent,
            "values": [qz.signed_int_to_hex(v) for v in g.values],
        }
    if isinstance(g, agg.EncryptedGradient):
        return {
            "format": "encrypted",
            "ciphertexts": [paillier.int_to_hex(c.value) for c in g.ciphertexts],
            "n": paillier.int_to_hex(g.ciphertexts[0].public.n),
            "pieces": g.config.pieces,
            "scale_exponent": g.config.scale_exponent,
        }
    raise TypeError(f"cannot serialize gradient of type {type(g)!r}")


def encrypted_gradient_from_payload(payload: dict, pk: paillier.PublicKey) -> agg.EncryptedGradient:
    if payload.get("format") != "encrypted":
        raise ProtocolViolation(f"expected encrypted gradient, got {payload.get('format')!r}")
    if paillier.hex_to_int(payload["n"]) != pk.n:
        raise KeyMismatch("gradient is encrypted under a different key")
    cts = [
        paillier.Ciphertext(value=paillier.hex_to_int(h), public=pk)
        for h in payload["ciphertexts"]
    ]
    cfg = qz.QuantConfig(
        scale_exponent=int(payload["scale_exponent"]), pieces=int(payload["pieces"])
    )
    return agg.EncryptedGradient(ciphertexts=cts, config=cfg)


def decode_gradient_payload(payload: dict, keypair: paillier.KeyPair | None = None) -> np.ndarray:
    """Real-valued gradient from any wire format; encrypted needs the key pair."""
    fmt = payload.get("format")
    if fmt == "plain":
        g = np.asarray(payload["values"], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise ProtocolViolation("plain gradient has non-finite entries")
        return g
    if fmt == "quantized":
        q = qz.QuantizedGradient(
            values=[qz.signed_hex_to_int(v) for v in payload["values"]],
            config=qz.QuantConfig(
                scale_exponent=int(payload["scale_exponent"]), pieces=int(payload["pieces"])
            ),
        )
        return qz.dequantize(q)
    if fmt == "encrypted":
        if keypair is None:
            raise ProtocolViolation("encrypted gradient but no key pair")
        eg = encrypted_gradient_from_payload(payload, keypair.public)
        return qz.dequantize(agg.decrypt_gradient(keypair, eg))
    raise ProtocolViolation(f"unknown gradient format {fmt!r}")


# --- configuration shared by both sides --------------------------------------


@dataclass(frozen=True)
class ProtocolSettings:
    n_clients: int
    rounds: int
    aggregator: str = "fedboosting"  # "fedavg" | "fedboosting"
    encryption: str = "none"  # "none" | "he" | "he_dp"
    weighting_mode: str = "score"
    layout: nn.Layout = field(default_factory=nn.mlp_layout)
    optimizer: nn.OptimizerConfig = field(default_factory=nn.OptimizerConfig)
    batch_size: int = 8
    epochs: int = 1
    quant: qz.QuantConfig = field(default_factory=qz.QuantConfig)
    key_bits: int = 128
    p_hat: float = 0.9
    dp_jitter: float = 0.0
    master_seed: int = 0
    timeout_s: float = 60.0

    @property
    def encrypted(self) -> bool:
        return self.encryption in ("he", "he_dp")


# --- client side --------------------------------------------------------------


class ClientSession:
    """Single-threaded client state machine; feed it messages, send the replies."""

    def __init__(self, settings: ProtocolSettings, client_id: int, split: DatasetSplit):
        if not (1 <= client_id <= settings.n_clients):
            raise ValueError(f"client id {client_id} outside 1..{settings.n_clients}")
        self.settings = settings
        self.client_id = client_id
        self.split = split
        self.keypair: paillier.KeyPair | None = None
        self.weights: nn.ModelParams | None = None
        self.round = 0
        self.done = False
        self.final_weights: nn.ModelParams | None = None
        self._nonce_rng = random.Random(derive_seed(settings.master_seed, "nonce", client_id))

    # -- key distribution --

    def startup(self) -> list[Message]:
        """Client 1 generates the cohort key pair and offers/ships it."""
        if not self.settings.encrypted or self.client_id != 1:
            return []
        self.keypair = paillier.keygen(
            self.settings.key_bits, derive_seed(self.settings.master_seed, "keygen")
        )
        return [
            Message(
                MessageKind.KEY_OFFER,
                round=0,
                sender=self.client_id,
                payload=paillier.public_key_to_payload(self.keypair.public),
            ),
            Message(
                MessageKind.KEY_DELIVER,
                round=0,
                sender=self.client_id,
                payload={"blob": paillier.keypair_to_blob(self.keypair)},
            ),
        ]

    # -- round operations --

    def train_round(self, msg: Message) -> Message:
        """Apply the incoming global state, train locally, upload the gradient."""
        r = msg.round
        if r != self.round + 1:
            raise ProtocolViolation(f"expected round {self.round + 1}, got {r}")
        if self.settings.encrypted and self.keypair is None:
            raise ProtocolViolation("no key pair before first training round")
        if r == 1:
            layout = nn.Layout(tuple(tuple(l) for l in msg.payload["layout"]))
            self.weights = nn.ModelParams(np.array(msg.payload["weights"]), layout)
        else:
            g = self._decode_gradient(msg.payload["gradient"])
            self.weights = nn.apply_gradient(self.weights, g)
        self.round = r
        report = nn.train_local(
            self.weights,
            self.split,
            self.settings.batch_size,
            self.settings.epochs,
            self.settings.optimizer,
            derive_seed(self.settings.master_seed, "shuffle", r, self.client_id),
        )
        if self.settings.encrypted:
            q = qz.quantize(report.gradient, self.settings.quant)
            qz.check_capacity(
                q, self.keypair.public.n, self.settings.n_clients, self.settings.quant.pieces
            )
            upload = agg.encrypt_gradient(self.keypair, q, self._nonce_rng)
        else:
            upload = report.gradient
        return Message(
            MessageKind.TRAIN_RESULT,
            round=r,
            sender=self.client_id,
            payload={
                "gradient": gradient_to_payload(upload),
                "train_loss": float(report.training_loss),
            },
        )

    def evaluate_fused(self, fused_payload: dict) -> float:
        """Validation loss of one candidate model on the local validation set."""
        if self.weights is None:
            raise ProtocolViolation("cross-validation before any training round")
        g = self._decode_gradient(fused_payload)
        candidate = nn.apply_gradient(self.weights, g)
        loss, _acc = nn.evaluate(candidate, self.split.validation)
        return float(loss)

    def decrypt_final(self, msg: Message) -> nn.ModelParams:
        """Final weights: previous global weights plus the merged gradient."""
        if msg.round != self.settings.rounds or self.round != self.settings.rounds:
            raise ProtocolViolation(
                f"final gradient in round {msg.round} at local round {self.round}, "
                f"expected {self.settings.rounds}"
            )
        g = self._decode_gradient(msg.payload["gradient"])
        return nn.apply_gradient(self.weights, g)

    # -- message pump --

    def handle(self, msg: Message) -> list[Message]:
        if msg.sender != SERVER_ID:
            raise ProtocolViolation(f"client received message from non-server {msg.sender}")
        if msg.kind == MessageKind.KEY_DELIVER:
            if self.client_id == 1:
                raise ProtocolViolation("key source received a key delivery")
            self.keypair = paillier.keypair_from_blob(msg.payload.get("blob"))
            return []
        if msg.kind == MessageKind.GLOBAL_GRADIENT:
            return [self.train_round(msg)]
        if msg.kind == MessageKind.FUSED_GRADIENT:
            values = [self.evaluate_fused(p) for p in msg.payload["models"]]
            return [
                Message(
                    MessageKind.EVAL_RESULT,
                    round=msg.round,
                    sender=self.client_id,
                    payload={"values": values},
                )
            ]
        if msg.kind == MessageKind.MERGED_GRADIENT:
            self.final_weights = self.decrypt_final(msg)
            if self.client_id != DESIGNATED_DECRYPTOR:
                self.done = True
            return []
        if msg.kind == MessageKind.FINAL_MODEL_REQUEST:
            if self.client_id != DESIGNATED_DECRYPTOR:
                raise ProtocolViolation("final model requested from a non-designated client")
            if self.final_weights is None:
                raise ProtocolViolation("final model requested before the merged gradient")
            self.done = True
            return [
                Message(
                    MessageKind.FINAL_MODEL,
                    round=msg.round,
                    sender=self.client_id,
                    payload={"weights": [float(x) for x in self.final_weights.values]},
                )
            ]
        if msg.kind == MessageKind.ABORT:
            self.done = True
            return []
        raise ProtocolViolation(f"client cannot handle {msg.kind.name}")

    def _decode_gradient(self, payload: dict) -> np.ndarray:
        return decode_gradient_payload(payload, self.keypair)


def client_run(session: ClientSession, endpoint) -> None:
    """Blocking pump: run the session over one endpoint until done or aborted."""
    try:
        for msg in session.startup():
            endpoint.send(*encode_message(msg))
        while not session.done:
            kind, body = endpoint.recv(timeout=session.settings.timeout_s)
            for out in session.handle(decode_message(kind, body)):
                endpoint.send(*encode_message(out))
    except (TransportError, RoundAborted):
        session.done = True
    except FedBoostError as exc:
        session.done = True
        try:
            endpoint.send(
                *encode_message(
                    Message(
                        MessageKind.ABORT,
                        round=session.round,
                        sender=session.client_id,
                        payload={"reason": f"{type(exc).__name__}: {exc}"},
                    )
                )
            )
        except TransportError:
            pass


# --- server side ---------------------------------------------------------------


@dataclass
class ServerRound:
    round: int
    train_losses: list[float]
    validation: list[list[float]] | None
    weights: list[float] | None
    merged_gradient: dict
    durations: dict[str, float] = field(default_factory=dict)


@dataclass
class ServerState:
    """Holds public material only; decryption capability never enters here."""

    settings: ProtocolSettings
    roster: tuple[int, ...]
    round: int = 0
    public_key: paillier.PublicKey | None = None
    train_gradients: dict[int, dict] = field(default_factory=dict)
    train_losses: dict[int, float] = field(default_factory=dict)
    validation: dict[tuple[int, int], float] = field(default_factory=dict)
    global_gradient: dict | None = None
    records: list[ServerRound] = field(default_factory=list)
    last_round_seen: dict[int, int] = field(default_factory=dict)


@dataclass
class ServerRunResult:
    final_weights: nn.ModelParams
    initial_weights: nn.ModelParams
    rounds: list[ServerRound]


def _send(endpoints, cid: int, msg: Message) -> None:
    endpoints[cid].send(*encode_message(msg))


def _broadcast_abort(endpoints, roster, round_no: int, reason: str) -> None:
    msg = Message(MessageKind.ABORT, round=round_no, sender=SERVER_ID, payload={"reason": reason})
    for cid in roster:
        try:
            _send(endpoints, cid, msg)
        except TransportError:
            pass


def _expect(
    state: ServerState,
    endpoints,
    cid: int,
    kind: MessageKind,
    transcript: list | None,
) -> Message:
    try:
        raw_kind, body = endpoints[cid].recv(timeout=state.settings.timeout_s)
    except TransportError as exc:
        _broadcast_abort(endpoints, state.roster, state.round, f"client {cid} unreachable")
        raise RoundAborted(f"waiting for {kind.name} from client {cid}: {exc}") from exc
    try:
        msg = decode_message(raw_kind, body)
    except ProtocolViolation:
        _broadcast_abort(endpoints, state.roster, state.round, f"client {cid} sent garbage")
        raise
    if transcript is not None:
        transcript.append((cid, encode_frame(raw_kind, body)))
    if msg.kind == MessageKind.ABORT:
        reason = msg.payload.get("reason", "unspecified")
        _broadcast_abort(endpoints, state.roster, state.round, f"client {cid} aborted: {reason}")
        raise RoundAborted(f"client {cid} aborted: {reason}")
    if msg.sender != cid:
        raise ProtocolViolation(f"message from endpoint {cid} claims sender {msg.sender}")
    if msg.round < state.last_round_seen.get(cid, 0):
        raise ProtocolViolation(f"client {cid} round went backwards to {msg.round}")
    state.last_round_seen[cid] = msg.round
    if msg.kind != kind:
        raise ProtocolViolation(f"expected {kind.name} from client {cid}, got {msg.kind.name}")
    return msg


def distribute_keys(state: ServerState, endpoints, transcript: list | None = None) -> None:
    """Register client 1's public key, relay the opaque key blob to the rest."""
    offer = _expect(state, endpoints, 1, MessageKind.KEY_OFFER, transcript)
    if state.public_key is not None:
        raise ProtocolViolation("duplicate key offer")
    state.public_key = paillier.public_key_from_payload(offer.payload)
    deliver = _expect(state, endpoints, 1, MessageKind.KEY_DELIVER, transcript)
    # the blob is opaque to the server: it relays the payload without parsing it
    for cid in state.roster:
        if cid != 1:
            _send(
                endpoints,
                cid,
                Message(MessageKind.KEY_DELIVER, round=0, sender=SERVER_ID, payload=deliver.payload),
            )


def _cross_validation_models(state: ServerState, order: list[int]) -> list[dict]:
    """Per-model payloads the clients will score, fused when DP is on."""
    settings = state.settings
    if settings.encryption == "none" or settings.encryption == "he":
        return [state.train_gradients[cid] for cid in order]
    egrads = [
        encrypted_gradient_from_payload(state.train_gradients[cid], state.public_key)
        for cid in order
    ]
    fusion = agg.DpFusionConfig(
        p_hat=settings.p_hat, pieces=settings.quant.pieces, jitter=settings.dp_jitter
    )
    rng = (
        random.Random(derive_seed(settings.master_seed, "dpjitter", state.round))
        if settings.dp_jitter > 0
        else None
    )
    fused = agg.dp_fuse(state.public_key, egrads, fusion, rng)
    return [gradient_to_payload(f) for f in fused]


def _merge(state: ServerState, order: list[int], weights: agg.AggregationWeights) -> dict:
    settings = state.settings
    if settings.encrypted:
        egrads = [
            encrypted_gradient_from_payload(state.train_gradients[cid], state.public_key)
            for cid in order
        ]
        merged = agg.merge_encrypted(state.public_key, egrads, weights, settings.quant.pieces)
        return gradient_to_payload(merged)
    grads = [
        np.asarray(state.train_gradients[cid]["values"], dtype=np.float64) for cid in order
    ]
    return gradient_to_payload(agg.merge_plain(grads, weights))


def server_run(
    settings: ProtocolSettings,
    endpoints: dict[int, object],
    transcript: list | None = None,
) -> ServerRunResult:
    """Drive all rounds over per-client endpoints; returns the decrypted final
    model and one record per round. Clients are polled in id order inside each
    phase, so runs and transcripts are reproducible."""
    if set(endpoints) != set(range(1, settings.n_clients + 1)):
        raise ProtocolViolation(f"need endpoints for clients 1..{settings.n_clients}")
    if settings.aggregator not in ("fedavg", "fedboosting"):
        raise ProtocolViolation(f"unknown aggregator {settings.aggregator!r}")
    if settings.encryption == "he_dp" and settings.aggregator != "fedboosting":
        raise ProtocolViolation("dp fusion only exists on the cross-validation path")
    state = ServerState(settings=settings, roster=tuple(range(1, settings.n_clients + 1)))
    order = list(state.roster)

    if settings.encrypted:
        distribute_keys(state, endpoints, transcript)

    initial = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)

    for r in range(1, settings.rounds + 1):
        state.round = r
        state.train_gradients.clear()
        state.train_losses.clear()
        state.validation.clear()
        durations: dict[str, float] = {}

        if r == 1:
            payload = {
                "layout": [list(l) for l in settings.layout.layers],
                "weights": [float(x) for x in initial.values],
            }
        else:
            payload = {"gradient": state.global_gradient}
        for cid in order:
            _send(
                endpoints,
                cid,
                Message(MessageKind.GLOBAL_GRADIENT, round=r, sender=SERVER_ID, payload=payload),
            )

        phase_start = time.monotonic()
        for cid in order:
            msg = _expect(state, endpoints, cid, MessageKind.TRAIN_RESULT, transcript)
            if msg.round != r:
                raise ProtocolViolation(f"train result for round {msg.round} during round {r}")
            state.train_gradients[cid] = msg.payload["gradient"]
            state.train_losses[cid] = float(msg.payload["train_loss"])
        durations["train"] = time.monotonic() - phase_start

        validation_matrix = None
        if settings.aggregator == "fedboosting":
            phase_start = time.monotonic()
            models = _cross_validation_models(state, order)
            fused_msg_payload = {"models": models}
            for cid in order:
                _send(
                    endpoints,
                    cid,
                    Message(
                        MessageKind.FUSED_GRADIENT,
                        round=r,
                        sender=SERVER_ID,
                        payload=fused_msg_payload,
                    ),
                )
            for cid in order:
                msg = _expect(state, endpoints, cid, MessageKind.EVAL_RESULT, transcript)
                values = msg.payload["values"]
                if len(values) != len(order):
                    raise ProtocolViolation(
                        f"client {cid} returned {len(values)} validation entries, "
                        f"expected {len(order)}"
                    )
                for i, v in enumerate(values):
                    state.validation[(i, cid - 1)] = float(v)
            # barrier: the matrix exists only once all N*N entries arrived
            validation_matrix = agg.ValidationMatrix(
                np.array(
                    [
                        [state.validation[(i, j)] for j in range(len(order))]
                        for i in range(len(order))
                    ]
                )
            )
            weights = agg.fedboost_weights(
                np.array([state.train_losses[cid] for cid in order]),
                validation_matrix,
                mode=settings.weighting_mode,
            )
            durations["cross_validation"] = time.monotonic() - phase_start
        else:
            weights = agg.fedavg_weights(len(order))

        phase_start = time.monotonic()
        state.global_gradient = _merge(state, order, weights)
        durations["merge"] = time.monotonic() - phase_start

        state.records.append(
            ServerRound(
                round=r,
                train_losses=[state.train_losses[cid] for cid in order],
                validation=validation_matrix.values.tolist() if validation_matrix else None,
                weights=weights.values.tolist() if settings.aggregator == "fedboosting" else None,
                merged_gradient=state.global_gradient,
                durations=durations,
            )
        )

    final_payload = {"gradient": state.global_gradient}
    for cid in order:
        _send(
            endpoints,
            cid,
            Message(
                MessageKind.MERGED_GRADIENT,
                round=settings.rounds,
                sender=SERVER_ID,
                payload=final_payload,
            ),
        )
    _send(
        endpoints,
        DESIGNATED_DECRYPTOR,
        Message(
            MessageKind.FINAL_MODEL_REQUEST,
            round=settings.rounds,
            sender=SERVER_ID,
            payload={},
        ),
    )
    final_msg = _expect(state, endpoints, DESIGNATED_DECRYPTOR, MessageKind.FINAL_MODEL, transcript)
    final = nn.ModelParams(np.array(final_msg.payload["weights"]), settings.layout)
    return ServerRunResult(final_weights=final, initial_weights=initial, rounds=state.records)
