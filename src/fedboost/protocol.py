"""Round protocol between the aggregation server and training clients.

Flow per round: the server broadcasts the previous merged gradient (round 1:
the initial weights), every client trains locally and uploads its gradient with
its training loss, the server builds per-model cross-validation payloads
(perturbed under homomorphic ops when fusion is on), clients return validation
losses, the server computes aggregation weights and merges. A TCP client
trains alone as soon as the broadcast reaches it; the in-thread loopback
cohort trains all its clients in one stacked step when the server first waits
for an upload. After the last
round a designated client decrypts the merged result and returns the final
weights, since the server's state never holds the key pair. Every client of an
encrypted cohort holds that key pair from the start, handed over out of band;
client 1 offers the server its public key, and no frame carries the secret one.

Wire bodies are canonical JSON (alphabetical keys, compact separators); big
integers travel as hex strings and floats as shortest round-trip decimals, so
transcripts are byte-reproducible across transports. A payload carries only
what the receiver's config cannot give: a plain gradient is ``{"values"}``, an
encrypted one ``{"ciphertexts", "n"}`` and the key offer ``{"n"}``. Every party
takes the entry count, scale exponent and piece count from its config, and the
key size from ``n``; the per-gradient ``n`` tells a gradient under another key.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import aggregate as agg
from . import nn
from . import paillier
from . import quantize as qz
from .config import ExperimentConfig
from .datasets import DatasetSplit
from .errors import (
    ChannelClosed,
    FedBoostError,
    KeyMismatch,
    NonFiniteInput,
    ProtocolViolation,
    RoundAborted,
    ShapeMismatch,
    TransportError,
    WeakKey,
)
from .transport import decode_frame, encode_frame

SERVER_ID = 0
DESIGNATED_DECRYPTOR = 1


class MessageKind(IntEnum):
    KEY_OFFER = 1
    KEY_DELIVER = 2  # retired: no frame carries the key pair
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
    # ValueError covers bad UTF-8, bad JSON and integers past the int-string
    # limit; RecursionError, arrays or objects nested too deep
    try:
        data = json.loads(body.decode())
    except (ValueError, RecursionError) as exc:
        raise ProtocolViolation(f"malformed message body: {exc}") from exc
    if (
        not isinstance(data, dict)
        or set(data) != {"payload", "round", "sender"}
        or not isinstance(data["payload"], dict)
        or any(type(data[name]) is not int for name in ("round", "sender"))  # no bools
    ):
        raise ProtocolViolation("message body must carry payload/round/sender")
    return Message(kind=mk, round=data["round"], sender=data["sender"], payload=data["payload"])


def derive_seed(master: int, *tags) -> int:
    """Stable sub-seed for a named purpose, e.g. ('shuffle', round, client)."""
    digest = hashlib.sha256(repr((master,) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# --- payload codec ------------------------------------------------------------


def _field(payload, name: str, kind):
    """payload[name], or ProtocolViolation when it is missing or not of ``kind``."""
    value = payload.get(name) if isinstance(payload, dict) else None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ProtocolViolation(f"payload field {name!r} is missing or mistyped")
    return value


def _vector(payload, name: str, length: int | None = None) -> np.ndarray:
    """A list of finite numbers, of ``length`` entries when given."""
    values = _field(payload, name, list)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values):
        raise ProtocolViolation(f"payload field {name!r} is not a list of numbers")
    if length is not None and len(values) != length:
        raise ProtocolViolation(
            f"payload field {name!r} has {len(values)} entries, expected {length}"
        )
    try:
        vector = np.array(values, dtype=np.float64)
    except OverflowError:  # json reads integers of any size
        raise ProtocolViolation(f"payload field {name!r} has entries beyond float range") from None
    if not np.all(np.isfinite(vector)):
        raise ProtocolViolation(f"payload field {name!r} has non-finite entries")
    return vector


def gradient_to_payload(g) -> dict:
    if isinstance(g, np.ndarray):
        return {"values": [float(x) for x in g]}
    if isinstance(g, agg.EncryptedGradient):
        return {
            "ciphertexts": [paillier.int_to_hex(c.value) for c in g.ciphertexts],
            "n": paillier.int_to_hex(g.ciphertexts[0].public.n),
        }
    raise TypeError(f"cannot serialize gradient of type {type(g)!r}")


def encrypted_gradient_from_payload(
    payload: dict, pk: paillier.PublicKey, entries: int, quant: qz.QuantConfig
) -> agg.EncryptedGradient:
    """Packed ciphertexts under ``pk`` of ``entries`` values quantized with
    ``quant``, both of which the receiver takes from its config."""
    hexes = _field(payload, "ciphertexts", list)
    try:
        n = paillier.hex_to_int(_field(payload, "n", str))
    except ValueError as exc:
        raise ProtocolViolation(f"malformed modulus: {exc}") from exc
    if n != pk.n:
        raise KeyMismatch("gradient is encrypted under a different key")
    try:
        cts = [paillier.Ciphertext(value=paillier.hex_to_int(h), public=pk) for h in hexes]
        return agg.EncryptedGradient(ciphertexts=cts, config=quant, entries=entries)
    except (ValueError, ShapeMismatch) as exc:
        raise ProtocolViolation(f"malformed encrypted gradient: {exc}") from exc


def decode_gradient_payload(
    payload: dict, keypair: paillier.KeyPair | None, entries: int, quant: qz.QuantConfig
) -> np.ndarray:
    """Real-valued gradient of ``entries`` values: plain when ``keypair`` is
    None, else packed ciphertexts under it, quantized with ``quant``."""
    if keypair is None:
        return _vector(payload, "values", entries)
    eg = encrypted_gradient_from_payload(payload, keypair.public, entries, quant)
    return qz.dequantize(agg.decrypt_gradient(keypair, eg))


# --- client side --------------------------------------------------------------


class ClientSession:
    """Single-threaded client state machine; feed it messages, send the replies."""

    def __init__(
        self,
        settings: ExperimentConfig,
        client_id: int,
        split: DatasetSplit,
        keypair: paillier.KeyPair | None = None,
    ):
        """``keypair`` is the cohort key pair, which every client of an
        encrypted cohort holds from the start."""
        if not (1 <= client_id <= settings.n_clients):
            raise ValueError(f"client id {client_id} outside 1..{settings.n_clients}")
        if settings.encrypted and keypair is None:
            raise ValueError("every client of an encrypted cohort needs the cohort key pair")
        self.settings = settings
        self.client_id = client_id
        self.split = split
        self.keypair = keypair
        self.weights: nn.ModelParams | None = None
        self.round = 0
        self.done = False
        self.final_weights: nn.ModelParams | None = None
        self.pending = False
        self._nonce_rng = random.Random(derive_seed(settings.master_seed, "nonce", client_id))

    # -- key offer --

    def startup(self) -> list[Message]:
        """Client 1 offers the server the cohort's public key."""
        if not self.settings.encrypted or self.client_id != 1:
            return []
        return [
            Message(
                MessageKind.KEY_OFFER,
                round=0,
                sender=self.client_id,
                payload=paillier.public_key_to_payload(self.keypair.public),
            )
        ]

    # -- a round's training: apply the global state, train, upload --

    def apply_global(self, msg: Message) -> None:
        """Take the round's global state; the session is then pending training."""
        layout = self.settings.layout
        if msg.round == 1:
            if _field(msg.payload, "layout", list) != [list(l) for l in layout.layers]:
                raise ProtocolViolation(f"model layout differs from {layout.layers}")
            self.weights = nn.ModelParams(_vector(msg.payload, "weights", layout.size), layout)
        else:
            g = self._decode_gradient(_field(msg.payload, "gradient", dict))
            self.weights = nn.apply_gradient(self.weights, g)
        self.round = msg.round
        self.pending = True

    @property
    def shuffle_seed(self) -> int:
        """Seed of this round's batch order."""
        return derive_seed(self.settings.master_seed, "shuffle", self.round, self.client_id)

    def upload(self, report: nn.TrainReport | None = None) -> list[tuple[int, bytes]]:
        """The encoded reply to the pending round: the TRAIN_RESULT of
        ``report``, this session's result from a cohort's ``nn.train_cohort``;
        without one the session trains alone, with ``nn.train_local``.
        Training that diverged ends the session with an ABORT, as in
        ``respond``."""

        def step() -> list[Message]:
            self.pending = False
            s = self.settings
            result = report
            if result is None:
                result = nn.train_local(
                    self.weights, self.split, s.batch_size, s.epochs, s.learning_rate, self.shuffle_seed
                )
            if not (np.all(np.isfinite(result.gradient)) and math.isfinite(result.training_loss)):
                raise NonFiniteInput(f"local training diverged in round {self.round}")
            if s.encrypted:
                upload = agg.encrypt_gradient(
                    self.keypair,
                    qz.quantize(result.gradient, s.quant),
                    self._nonce_rng,
                    s.n_clients,
                    s.quant.pieces,
                )
            else:
                upload = result.gradient
            payload = {
                "gradient": gradient_to_payload(upload),
                "train_loss": float(result.training_loss),
            }
            return [Message(MessageKind.TRAIN_RESULT, self.round, self.client_id, payload)]

        return self._reply(step)

    def evaluate_fused(self, fused_payload: dict) -> float:
        """Validation loss of one candidate model on the local validation set."""
        if self.weights is None:
            raise ProtocolViolation("cross-validation before any training round")
        # under he the server relays the raw uploads; under he_dp it fuses them
        raw = self.settings.encryption == "he"
        g = self._decode_gradient(fused_payload, self.settings.quant.pieces if raw else 1)
        candidate = nn.apply_gradient(self.weights, g)
        loss, _acc = nn.evaluate(candidate, self.split.validation)
        return float(loss)

    def decrypt_final(self, msg: Message) -> nn.ModelParams:
        """Final weights: previous global weights plus the merged gradient."""
        if self.round != self.settings.rounds:
            raise ProtocolViolation(
                f"final gradient in round {self.round}, expected {self.settings.rounds}"
            )
        g = self._decode_gradient(_field(msg.payload, "gradient", dict))
        return nn.apply_gradient(self.weights, g)

    # -- message pump --

    def respond(self, kind: int, body: bytes) -> list[tuple[int, bytes]]:
        """The encoded replies to one frame from the server, none once the
        session is done. A GLOBAL_GRADIENT gets none yet: it leaves the session
        pending, for ``upload`` to answer. A FedBoostError ends the session
        with an ABORT that tells the server why."""
        return self._reply(lambda: self.handle(decode_message(kind, body)))

    def _reply(self, step) -> list[tuple[int, bytes]]:
        if self.done:
            return []
        try:
            replies = step()
        except FedBoostError as exc:
            self.done = True
            reason = {"reason": f"{type(exc).__name__}: {exc}"}
            replies = [Message(MessageKind.ABORT, self.round, self.client_id, reason)]
        return [encode_message(m) for m in replies]

    def handle(self, msg: Message) -> list[Message]:
        if msg.sender != SERVER_ID:
            raise ProtocolViolation(f"client received message from non-server {msg.sender}")
        if msg.kind == MessageKind.ABORT:
            self.done = True
            return []
        # a server frame carries this client's round, and a round's broadcast the next one
        expected = self.round + 1 if msg.kind == MessageKind.GLOBAL_GRADIENT else self.round
        if msg.round != expected:
            raise ProtocolViolation(
                f"{msg.kind.name} for round {msg.round} at local round {self.round}, "
                f"expected round {expected}"
            )
        if msg.kind == MessageKind.GLOBAL_GRADIENT:
            self.apply_global(msg)
            return []
        if msg.kind == MessageKind.FUSED_GRADIENT:
            models = _field(msg.payload, "models", list)
            if len(models) != self.settings.n_clients:
                raise ProtocolViolation(
                    f"{len(models)} models to cross-validate, expected {self.settings.n_clients}"
                )
            values = [self.evaluate_fused(p) for p in models]
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
        raise ProtocolViolation(f"client cannot handle {msg.kind.name}")

    def _decode_gradient(self, payload: dict, pieces: int = 1) -> np.ndarray:
        """A gradient from the server. An encrypted one decodes with the
        configured scale exponent and ``pieces``: 1 once the server has applied
        weights."""
        quant = qz.QuantConfig(self.settings.quant.scale_exponent, pieces)
        return decode_gradient_payload(payload, self.keypair, self.settings.layout.size, quant)


def client_run(session: ClientSession, endpoint) -> None:
    """Blocking pump: run the session over one endpoint until it is done or
    the channel fails; the session trains alone."""
    try:
        for msg in session.startup():
            endpoint.send(*encode_message(msg))
        while not session.done:
            replies = session.respond(*endpoint.recv(timeout=session.settings.timeout_s))
            for reply in session.upload() if session.pending else replies:
                endpoint.send(*reply)
    except TransportError:
        session.done = True


class InThreadCohort:
    """Client sessions run in the server's thread, trained as one cohort.

    ``endpoints`` holds the server's endpoint to each. A frame sent to a client
    goes to its ``ClientSession.respond`` and the replies are queued; a
    GLOBAL_GRADIENT leaves the session pending. The next ``recv`` from any
    client trains every pending session in one ``nn.train_cohort`` call, then
    queues their uploads in id order; if that call fails, each trains alone.
    Frames go through the same codec as on TCP, so bytes and transcripts are
    the same. An exception that is no FedBoostError reaches the caller naming
    the client.
    """

    def __init__(self, sessions: list[ClientSession]):
        self._sessions = {s.client_id: s for s in sessions}
        self._replies = {
            s.client_id: deque(encode_frame(*encode_message(m)) for m in s.startup())
            for s in sessions
        }
        self.endpoints = {cid: _CohortEndpoint(self, cid) for cid in self._sessions}

    def _queue(self, session: ClientSession, step) -> None:
        try:
            replies = step()
        except Exception as exc:
            raise RuntimeError(
                f"client {session.client_id} failed: {type(exc).__name__}: {exc}"
            ) from exc
        self._replies[session.client_id].extend(encode_frame(*reply) for reply in replies)

    def send(self, cid: int, kind: int, body: bytes) -> None:
        kind, body = decode_frame(encode_frame(kind, body))
        session = self._sessions[cid]
        self._queue(session, lambda: session.respond(kind, body))

    def recv(self, cid: int) -> tuple[int, bytes]:
        pending = [s for s in self._sessions.values() if s.pending and not s.done]
        if pending:
            settings = pending[0].settings
            try:
                reports = nn.train_cohort(
                    [s.weights for s in pending],
                    [s.split for s in pending],
                    settings.batch_size,
                    settings.epochs,
                    settings.learning_rate,
                    [s.shuffle_seed for s in pending],
                )
            except FedBoostError:
                # each session then trains alone, so only the one at fault aborts
                reports = [None] * len(pending)
            for session, report in zip(pending, reports):
                self._queue(session, lambda: session.upload(report))
        if not self._replies[cid]:
            raise ChannelClosed(f"client {cid} has no reply to send")
        return decode_frame(self._replies[cid].popleft())


class _CohortEndpoint:
    """The server's endpoint to one client of an ``InThreadCohort``."""

    def __init__(self, cohort: InThreadCohort, cid: int):
        self._cohort = cohort
        self._cid = cid

    def send(self, kind: int, body: bytes) -> None:
        self._cohort.send(self._cid, kind, body)

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        return self._cohort.recv(self._cid)


# --- server side ---------------------------------------------------------------


@dataclass
class RoundRecord:
    """One completed round: client losses, the cross-validation matrix and
    boost weights when applicable, phase durations, and the post-merge global
    model's combined-test performance, which the runner fills in."""

    round: int
    train_losses: list[float]
    validation: list[list[float]] | None
    weights: list[float] | None
    global_test_loss: float | None = None
    global_test_acc: float | None = None
    durations: dict[str, float] = field(default_factory=dict)


@dataclass
class ServerState:
    """Holds public material only; decryption capability never enters here."""

    settings: ExperimentConfig
    round: int = 0
    public_key: paillier.PublicKey | None = None


@dataclass
class ServerRunResult:
    """The final model, one record per round, and each round's merged
    gradient payload (kept out of the records, so out of records.json)."""

    final_weights: nn.ModelParams
    initial_weights: nn.ModelParams
    rounds: list[RoundRecord]
    merged_gradients: list[dict]


def _send(endpoints, kind: MessageKind, round_no: int, payload: dict, to=None) -> None:
    """Encode one server message once and send it to clients ``to`` (default:
    all, in id order). An ABORT goes to every client that can still take it."""
    frame = encode_message(Message(kind, round=round_no, sender=SERVER_ID, payload=payload))
    for cid in sorted(endpoints) if to is None else to:
        try:
            endpoints[cid].send(*frame)
        except TransportError:
            if kind != MessageKind.ABORT:
                raise


@contextmanager
def _from_client(cid: int):
    """Name client ``cid`` in a ProtocolViolation, KeyMismatch or WeakKey
    raised reading what it sent."""
    try:
        yield
    except (ProtocolViolation, KeyMismatch, WeakKey) as exc:
        raise type(exc)(f"client {cid}: {exc}") from exc


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
        raise RoundAborted(f"waiting for {kind.name} from client {cid}: {exc}") from exc
    with _from_client(cid):
        msg = decode_message(raw_kind, body)
    if transcript is not None:
        transcript.append((cid, encode_frame(raw_kind, body)))
    if msg.kind == MessageKind.ABORT:
        raise RoundAborted(f"client {cid} aborted: {msg.payload.get('reason', 'unspecified')}")
    if msg.sender != cid:
        raise ProtocolViolation(f"message from endpoint {cid} claims sender {msg.sender}")
    if msg.kind != kind:
        raise ProtocolViolation(f"expected {kind.name} from client {cid}, got {msg.kind.name}")
    # every client frame carries the server's round, 0 for the key offer
    if msg.round != state.round:
        raise ProtocolViolation(
            f"client {cid} sent {kind.name} for round {msg.round} during round {state.round}"
        )
    return msg


def _receive_gradient(state: ServerState, payload: dict):
    """An uploaded gradient, checked against the model size; the server
    decodes ciphertexts but never decrypts them."""
    settings = state.settings
    gradient = _field(payload, "gradient", dict)
    if settings.encrypted:
        return encrypted_gradient_from_payload(
            gradient, state.public_key, settings.layout.size, settings.quant
        )
    return _vector(gradient, "values", settings.layout.size)


def _cross_validation_models(state: ServerState, gradients: list) -> list[dict]:
    """Per-model payloads the clients will score, fused when DP is on."""
    settings = state.settings
    if settings.encryption != "he_dp":
        return [gradient_to_payload(g) for g in gradients]
    fused = agg.dp_fuse(state.public_key, gradients, settings.p_hat, settings.quant.pieces)
    return [gradient_to_payload(f) for f in fused]


def _merge(state: ServerState, gradients: list, weights: agg.AggregationWeights) -> dict:
    settings = state.settings
    if settings.encrypted:
        merged = agg.merge_encrypted(state.public_key, gradients, weights, settings.quant.pieces)
        return gradient_to_payload(merged)
    return gradient_to_payload(agg.merge_plain(gradients, weights))


def server_run(
    settings: ExperimentConfig,
    endpoints: dict[int, object],
    transcript: list | None = None,
) -> ServerRunResult:
    """Drive all rounds over per-client endpoints; returns the decrypted final
    model and one record per round. Clients are polled in id order inside each
    phase, so runs and transcripts are reproducible. A configuration that
    ``validate`` refuses raises ConfigError before any frame is sent; any
    later FedBoostError is sent to every client in an ABORT, then raised."""
    settings.validate()
    state = ServerState(settings=settings)
    try:
        return _run_rounds(state, endpoints, transcript)
    except FedBoostError as exc:
        _send(endpoints, MessageKind.ABORT, state.round, {"reason": f"{type(exc).__name__}: {exc}"})
        raise


def _run_rounds(state: ServerState, endpoints, transcript: list | None) -> ServerRunResult:
    settings = state.settings
    n = settings.n_clients
    clients = range(1, n + 1)
    if set(endpoints) != set(clients):
        raise ProtocolViolation(f"need endpoints for clients 1..{n}")
    records, merged_gradients = [], []

    if settings.encrypted:
        offer = _expect(state, endpoints, 1, MessageKind.KEY_OFFER, transcript)
        with _from_client(1):
            state.public_key = paillier.public_key_from_payload(offer.payload)
            if state.public_key.key_bits != settings.key_bits:
                raise KeyMismatch(
                    f"offered a {state.public_key.key_bits}-bit key, expected {settings.key_bits}"
                )

    initial = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)

    for r in range(1, settings.rounds + 1):
        state.round = r
        durations: dict[str, float] = {}

        if r == 1:
            payload = {
                "layout": [list(l) for l in settings.layout.layers],
                "weights": [float(x) for x in initial.values],
            }
        else:
            payload = {"gradient": merged_gradients[-1]}
        # in-thread loopback clients train in the first recv, TCP clients
        # once the broadcast reaches them; the phase spans both
        phase_start = time.monotonic()
        _send(endpoints, MessageKind.GLOBAL_GRADIENT, r, payload)

        # round state, indexed by cid - 1
        gradients = []
        train_losses = np.empty(n)
        for cid in clients:
            msg = _expect(state, endpoints, cid, MessageKind.TRAIN_RESULT, transcript)
            with _from_client(cid):
                gradients.append(_receive_gradient(state, msg.payload))
                loss = _field(msg.payload, "train_loss", (int, float))
                try:
                    loss = float(loss)
                except OverflowError:
                    raise ProtocolViolation("payload field 'train_loss' is beyond float range")
                if not math.isfinite(loss):
                    raise ProtocolViolation(f"payload field 'train_loss' is {loss}")
            train_losses[cid - 1] = loss
        durations["train"] = time.monotonic() - phase_start

        validation = None
        if settings.aggregator == "fedboosting":
            phase_start = time.monotonic()
            models = _cross_validation_models(state, gradients)
            _send(endpoints, MessageKind.FUSED_GRADIENT, r, {"models": models})
            # column j holds every candidate model's loss on client j + 1's data
            validation = np.empty((n, n))
            for cid in clients:
                msg = _expect(state, endpoints, cid, MessageKind.EVAL_RESULT, transcript)
                with _from_client(cid):
                    values = _vector(msg.payload, "values", n)
                    if np.any(values < 0):
                        raise ProtocolViolation("payload field 'values' has negative losses")
                validation[:, cid - 1] = values
            weights = agg.fedboost_weights(
                train_losses, agg.ValidationMatrix(validation), mode=settings.weighting_mode
            )
            durations["cross_validation"] = time.monotonic() - phase_start
        else:
            weights = agg.fedavg_weights(n)

        phase_start = time.monotonic()
        merged_gradients.append(_merge(state, gradients, weights))
        durations["merge"] = time.monotonic() - phase_start

        records.append(
            RoundRecord(
                round=r,
                train_losses=train_losses.tolist(),
                validation=None if validation is None else validation.tolist(),
                weights=None if validation is None else weights.values.tolist(),
                durations=durations,
            )
        )

    last = settings.rounds
    _send(endpoints, MessageKind.MERGED_GRADIENT, last, {"gradient": merged_gradients[-1]})
    _send(endpoints, MessageKind.FINAL_MODEL_REQUEST, last, {}, to=[DESIGNATED_DECRYPTOR])
    final_msg = _expect(state, endpoints, DESIGNATED_DECRYPTOR, MessageKind.FINAL_MODEL, transcript)
    with _from_client(DESIGNATED_DECRYPTOR):
        final_values = _vector(final_msg.payload, "weights", settings.layout.size)
    final = nn.ModelParams(final_values, settings.layout)
    return ServerRunResult(final, initial, records, merged_gradients)
