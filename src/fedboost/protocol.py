"""Round protocol between the aggregation server and training clients.

Flow per round: the server broadcasts the previous merged gradient (round 1:
nothing, as every client starts from the initial model), every client trains
locally and uploads its gradient with its training loss, under fedboosting the
server sends every client the candidate models to cross-validate (perturbed
under homomorphic ops when fusion is on) and clients return validation losses,
and the server computes aggregation weights and merges. Every frame a client
sends waits in its session's outbox until the transport takes it. A TCP client
trains alone as soon as the broadcast reaches it; the in-thread loopback cohort
trains all its clients in one stacked step when the server first waits for an
upload.
After the last round the server sends every client the merged result; client 1
alone decrypts it and answers with the final weights, since the server never
holds the key pair, and the others check it and close their channel. A client
takes only the next server frame of this order, or an ABORT; any other frame
ends its session with an ABORT naming the frame it awaited. Every client of an
encrypted cohort holds that key pair from the start, handed over out of band;
client 1 offers the server its public key, and no frame carries the secret one.

A body is the frame's round as 4 big-endian bytes, then its kind's fields
back to back, each at the width the receiver's config gives
(:func:`field_widths`); a body of any other length is refused. So frames are
byte-reproducible across transports, and the endpoint a frame arrives on
names the peer:

    KEY_OFFER        n, in key_bits/8 bytes
    GLOBAL_GRADIENT  nothing in round 1, as every client derives the initial
                     model, nn.init_params(derive_seed(master_seed, "init"),
                     layout); a merged gradient G later
    TRAIN_RESULT     G, then the training loss F(1)
    FUSED_GRADIENT   client k's N - 1 peers' uploads G in id order, as it
                     holds its own; all N fused models G under he_dp
    EVAL_RESULT      F(N), a validation loss per client in id order
    MERGED_GRADIENT  G, the last round's
    FINAL_MODEL      F(entries), the final model
    ABORT            the reason in UTF-8, at most MAX_REASON_BYTES

F(k) is k big-endian float64s, never NaN or infinity, and a plain G is
F(entries). An encrypted G is its key's fingerprint, 9 bytes that tell a
gradient under another key, then its ceil(entries / slots) ciphertexts, each
in (0, n^2) as 2*key_bits/8 big-endian bytes.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
import time
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from types import SimpleNamespace

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
    TransportError,
    WeakKey,
)

DESIGNATED_DECRYPTOR = 1


class MessageKind(IntEnum):
    KEY_OFFER = 1
    KEY_DELIVER = 2  # retired: no frame carries the key pair
    GLOBAL_GRADIENT = 3
    TRAIN_RESULT = 4
    FUSED_GRADIENT = 5
    EVAL_RESULT = 6
    MERGED_GRADIENT = 7
    FINAL_MODEL_REQUEST = 8  # retired: client 1 answers MERGED_GRADIENT with FINAL_MODEL
    FINAL_MODEL = 9
    ABORT = 10


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    round: int
    payload: dict


# the longest ABORT reason on the wire, in UTF-8 bytes
MAX_REASON_BYTES = 1024
_ROUND = struct.Struct(">I")


def field_widths(kind: MessageKind, round_no: int, settings: ExperimentConfig) -> dict | None:
    """The payload of a ``kind`` frame of ``round_no`` under ``settings``, each
    field its width in bytes, in wire order; an ABORT's reason takes at most
    its width. None for a retired kind."""
    n, entries = settings.n_clients, settings.layout.size
    gradient = {"values": 8 * entries}
    if settings.encrypted:
        count = -(-entries // agg.slots_per_ciphertext(settings.key_bits))
        width = paillier.byte_width(2 * settings.key_bits)
        gradient = {"key": paillier.FINGERPRINT_BYTES, "ciphertexts": count * width}
    # a client holds its own upload, so it is sent its peers' only; under he_dp, all N fused models
    models = n if settings.encryption == "he_dp" else n - 1
    return {
        MessageKind.KEY_OFFER: {"n": paillier.byte_width(settings.key_bits)},
        MessageKind.GLOBAL_GRADIENT: {"gradient": gradient} if round_no > 1 else {},
        MessageKind.TRAIN_RESULT: {"gradient": gradient, "train_loss": 8},
        MessageKind.FUSED_GRADIENT: {"models": [gradient] * models},
        MessageKind.EVAL_RESULT: {"values": 8 * n},
        MessageKind.MERGED_GRADIENT: {"gradient": gradient},
        MessageKind.FINAL_MODEL: {"weights": 8 * entries},
        MessageKind.ABORT: {"reason": MAX_REASON_BYTES},
    }.get(kind)


def largest_body(settings: ExperimentConfig) -> int:
    """The longest body any frame under ``settings`` may have: its round, then
    the widest kind's fields, an ABORT's at their bound."""

    def size(widths) -> int:
        if isinstance(widths, dict):
            widths = list(widths.values())
        return sum(map(size, widths)) if isinstance(widths, list) else widths

    # round 2 is the first whose broadcast carries a gradient
    return _ROUND.size + max(size(field_widths(kind, 2, settings) or {}) for kind in MessageKind)


def _walk(widths, payload, leaf):
    """``payload`` rebuilt with ``leaf(width, value)`` for each field, in wire order."""
    if isinstance(widths, dict):
        return {name: _walk(w, payload[name], leaf) for name, w in widths.items()}
    if isinstance(widths, list):
        return [_walk(w, value, leaf) for w, value in zip(widths, payload, strict=True)]
    return leaf(widths, payload)


def encode_message(msg: Message, settings: ExperimentConfig) -> tuple[int, bytes]:
    """The kind byte and the body: the round, then the payload's fields in
    the order :func:`field_widths` gives. An ABORT's reason is cut to its
    bound on a character boundary."""
    parts = [_ROUND.pack(msg.round)]
    if msg.kind == MessageKind.ABORT:
        reason = msg.payload["reason"].encode()[:MAX_REASON_BYTES]
        parts.append(reason.decode(errors="ignore").encode())
    else:
        widths = field_widths(msg.kind, msg.round, settings)
        _walk(widths, msg.payload, lambda _, raw: parts.append(raw))
    return int(msg.kind), b"".join(parts)


def decode_message(kind: int, body: bytes, settings: ExperimentConfig) -> Message:
    """The message of one frame: its round, then the fields :func:`field_widths`
    gives for its kind and round under ``settings``, which must spend the body
    exactly."""
    try:
        mk = MessageKind(kind)
    except ValueError:
        raise ProtocolViolation(f"unknown message kind byte {kind}") from None
    # a body too short for its round is refused for its length
    round_no = int.from_bytes(body[: _ROUND.size], "big")
    widths = field_widths(mk, round_no, settings)
    if widths is None:
        raise ProtocolViolation(f"{mk.name} is retired")
    at = _ROUND.size

    def take(width, _):
        nonlocal at
        at += width
        return body[at - width : at]

    payload = _walk(widths, widths, take)
    if mk == MessageKind.ABORT:
        # the reason runs to the end of the body, up to its bound
        at = min(at, max(len(body), _ROUND.size))
    if len(body) != at:
        raise ProtocolViolation(f"{mk.name} body has {len(body)} bytes, expected {at}")
    if mk == MessageKind.ABORT:
        try:
            payload = {"reason": payload["reason"].decode()}
        except UnicodeDecodeError as exc:
            raise ProtocolViolation(f"ABORT reason is no UTF-8: {exc}") from None
    return Message(mk, round_no, payload)


def derive_seed(master: int, *tags) -> int:
    """Stable sub-seed for a named purpose, e.g. ('shuffle', round, client)."""
    digest = hashlib.sha256(repr((master,) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# --- payload codec ------------------------------------------------------------


def floats_to_bytes(values) -> bytes:
    """``values`` as big-endian float64, 8 bytes each."""
    return np.asarray(values, dtype=">f8").tobytes()


def read_floats(payload: dict, name: str) -> np.ndarray:
    """Payload field ``name`` as finite floats, from the bytes
    :func:`floats_to_bytes` writes for them."""
    vector = np.frombuffer(payload[name], dtype=">f8").astype(np.float64)
    # float64 bits can spell NaN and infinity
    if not np.all(np.isfinite(vector)):
        raise ProtocolViolation(f"payload field {name!r} has non-finite entries")
    return vector


def gradient_to_payload(g) -> dict:
    if isinstance(g, np.ndarray):
        return {"values": floats_to_bytes(g)}
    if isinstance(g, agg.EncryptedGradient):
        public_key = g.ciphertexts[0].public
        width = paillier.byte_width(2 * public_key.key_bits)
        return {
            "key": public_key.fingerprint,
            "ciphertexts": b"".join(c.value.to_bytes(width, "big") for c in g.ciphertexts),
        }
    raise TypeError(f"cannot serialize gradient of type {type(g)!r}")


def read_gradient(
    payload: dict, public_key: paillier.PublicKey | None, entries: int, quant: qz.QuantConfig
) -> np.ndarray | agg.EncryptedGradient:
    """A gradient of ``entries`` values, checked but not decrypted: the plain
    vector when ``public_key`` is None, else the EncryptedGradient of packed
    ciphertexts under it, quantized with ``quant``. The receiver takes
    ``entries`` and ``quant`` from its config."""
    if public_key is None:
        return read_floats(payload, "values")
    if payload["key"] != public_key.fingerprint:
        raise KeyMismatch("gradient is encrypted under a different key")
    width = paillier.byte_width(2 * public_key.key_bits)
    raw = payload["ciphertexts"]
    try:
        cts = [
            paillier.Ciphertext(int.from_bytes(raw[at : at + width], "big"), public_key)
            for at in range(0, len(raw), width)
        ]
    except ValueError as exc:  # a value of 0 or at least n^2
        raise ProtocolViolation(f"malformed encrypted gradient: {exc}") from None
    return agg.EncryptedGradient(ciphertexts=cts, config=quant, entries=entries)


def decode_gradient_payload(
    payload: dict, keypair: paillier.KeyPair | None, entries: int, quant: qz.QuantConfig
) -> np.ndarray:
    """Real-valued gradient of ``entries`` values: plain when ``keypair`` is
    None, else packed ciphertexts under it, quantized with ``quant``."""
    g = read_gradient(payload, keypair.public if keypair else None, entries, quant)
    return g if keypair is None else qz.dequantize(agg.decrypt_gradient(keypair, g))


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
        encrypted cohort holds from the start. The session starts from the
        initial model, which ``settings`` gives."""
        if not (1 <= client_id <= settings.n_clients):
            raise ValueError(f"client id {client_id} outside 1..{settings.n_clients}")
        if settings.encrypted and keypair is None:
            raise ValueError("every client of an encrypted cohort needs the cohort key pair")
        self.settings = settings
        self.client_id = client_id
        self.split = split
        self.keypair = keypair
        self.weights = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)
        self.round = 0
        self.done = False
        # the (kind, round) of the one server frame it takes next; None while it owes its upload
        self.awaits: tuple[MessageKind, int] | None = (MessageKind.GLOBAL_GRADIENT, 1)
        # the plaintext of this client's latest upload, whose candidate it scores itself
        self._own: np.ndarray | qz.QuantizedGradient | None = None
        self._nonce_rng = random.Random(derive_seed(settings.master_seed, "nonce", client_id))
        # every encoded frame this client sends waits here, in order, until its transport takes it
        self.outbox: deque[tuple[int, bytes]] = deque()
        if settings.encrypted and client_id == 1:
            # client 1 offers the server the cohort's public key
            offer = paillier.public_key_to_payload(keypair.public)
            self._queue(lambda: [Message(MessageKind.KEY_OFFER, 0, offer)])

    # -- a round's training: train on the global state, upload --

    @property
    def shuffle_seed(self) -> int:
        """Seed of this round's batch order."""
        return derive_seed(self.settings.master_seed, "shuffle", self.round, self.client_id)

    def upload(self, report: nn.TrainReport | None = None) -> None:
        """Queue the upload the round owes: the TRAIN_RESULT of ``report``,
        this session's result from a cohort's ``nn.train_cohort``; without
        one the session trains alone, with ``nn.train_local``. Training that
        diverged ends the session with an ABORT, as in ``respond``."""

        def step() -> list[Message]:
            s = self.settings
            # under fedboosting the round goes on with cross-validation
            boosted = (MessageKind.FUSED_GRADIENT, self.round)
            self.awaits = boosted if s.aggregator == "fedboosting" else self._round_end()
            result = report
            if result is None:
                result = nn.train_local(
                    self.weights, self.split, s.batch_size, s.epochs, s.learning_rate, self.shuffle_seed
                )
            if not (np.all(np.isfinite(result.gradient)) and math.isfinite(result.training_loss)):
                raise NonFiniteInput(f"local training diverged in round {self.round}")
            upload = self._own = result.gradient
            if s.encrypted:
                self._own = qz.quantize(result.gradient, s.quant)
                upload = agg.encrypt_gradient(
                    self.keypair, self._own, self._nonce_rng, s.n_clients, s.quant.pieces
                )
            payload = {
                "gradient": gradient_to_payload(upload),
                "train_loss": floats_to_bytes([result.training_loss]),
            }
            return [Message(MessageKind.TRAIN_RESULT, self.round, payload)]

        self._queue(step)

    def evaluate_fused(self, fused_payload: dict) -> float:
        """Validation loss of one candidate model on the local validation set."""
        # under he the server relays the raw uploads; under he_dp it fuses them
        raw = self.settings.encryption == "he"
        return self._score(self._stepped(fused_payload, self.settings.quant.pieces if raw else 1))

    def _score(self, candidate: nn.ModelParams) -> float:
        loss, _acc = nn.evaluate(candidate, self.split.validation)
        return float(loss)

    def _round_end(self) -> tuple[MessageKind, int]:
        """The frame that ends this round: the next broadcast, or the final gradient after the last."""
        if self.round == self.settings.rounds:
            return MessageKind.MERGED_GRADIENT, self.round
        return MessageKind.GLOBAL_GRADIENT, self.round + 1

    # -- message pump --

    def respond(self, kind: int, body: bytes) -> None:
        """Queue the replies to one frame from the server, none once the
        session is done. A GLOBAL_GRADIENT gets none yet: the session then owes
        its upload, which ``upload`` queues. A FedBoostError ends the session
        with an ABORT that tells the server why."""
        self._queue(lambda: self.handle(decode_message(kind, body, self.settings)))

    def _queue(self, step) -> None:
        """Run ``step`` unless the session is done, and queue its replies, or
        the ABORT for the FedBoostError it raised, encoded in ``outbox``."""
        if self.done:
            return
        try:
            replies = step()
        except FedBoostError as exc:
            self.done = True
            reason = {"reason": f"{type(exc).__name__}: {exc}"}
            replies = [Message(MessageKind.ABORT, self.round, reason)]
        self.outbox.extend(encode_message(m, self.settings) for m in replies)

    def handle(self, msg: Message) -> list[Message]:
        if msg.kind == MessageKind.ABORT:
            self.done = True
            return []
        if (msg.kind, msg.round) != self.awaits:
            awaited = f"{self.awaits[0].name} of round {self.awaits[1]}" if self.awaits else "its upload"
            raise ProtocolViolation(
                f"{msg.kind.name} for round {msg.round} at local round {self.round}, awaiting {awaited}"
            )
        if msg.kind == MessageKind.GLOBAL_GRADIENT:
            # round 1 trains the initial model, a later one adds the merged gradient to it
            if msg.round > 1:
                self.weights = self._stepped(msg.payload["gradient"])
            self.round, self.awaits = msg.round, None
            return []
        if msg.kind == MessageKind.FUSED_GRADIENT:
            values = [self.evaluate_fused(p) for p in msg.payload["models"]]
            # under he_dp every model is fused; else the server relays the
            # peers' uploads only, as this client holds its own
            if self.settings.encryption != "he_dp":
                # under he, what a peer decrypts from the upload, P pieces per unit
                own = qz.dequantize(self._own) if self.settings.encrypted else self._own
                values.insert(self.client_id - 1, self._score(nn.apply_gradient(self.weights, own)))
            self.awaits = self._round_end()
            payload = {"values": floats_to_bytes(values)}
            return [Message(MessageKind.EVAL_RESULT, msg.round, payload)]
        # the final gradient, after the last round
        self.done = True
        merged = msg.payload["gradient"]
        if self.client_id != DESIGNATED_DECRYPTOR:
            # only client 1's final model is used: the others check the frame, not decrypt it
            public = self.keypair.public if self.keypair else None
            read_gradient(merged, public, self.settings.layout.size, self.settings.quant)
            return []
        weights = {"weights": floats_to_bytes(self._stepped(merged).values)}
        return [Message(MessageKind.FINAL_MODEL, msg.round, weights)]

    def _stepped(self, payload: dict, pieces: int = 1) -> nn.ModelParams:
        """The weights plus a gradient from the server. An encrypted one
        decodes with the configured scale exponent and ``pieces``: 1 once the
        server has applied weights."""
        quant = qz.QuantConfig(self.settings.quant.scale_exponent, pieces)
        g = decode_gradient_payload(payload, self.keypair, self.settings.layout.size, quant)
        return nn.apply_gradient(self.weights, g)


def client_run(session: ClientSession, endpoint) -> None:
    """Blocking pump: send what the session's outbox holds, then feed it one
    frame from the endpoint and have it upload when it owes one, until it is
    done or the channel fails; the session trains alone."""
    try:
        while True:
            while session.outbox:
                endpoint.send(*session.outbox.popleft())
            if session.done:
                return
            session.respond(*endpoint.recv(timeout=session.settings.timeout_s))
            if session.awaits is None:
                session.upload()
    except TransportError:
        session.done = True


class InThreadCohort:
    """Client sessions run in the server's thread, trained as one cohort.

    ``endpoints`` holds the server's endpoint to each session. A (kind, body)
    pair sent to a client goes straight to its ``ClientSession.respond``. A
    ``recv`` from any client first trains every session that owes its upload
    in one ``nn.train_cohort`` call and queues the uploads in id order (if that
    call fails, each trains alone), then takes the next pair from that
    client's ``outbox``. No frame is built: the pairs are those a TCP endpoint
    frames, so transcripts are the same. An exception that is no FedBoostError
    reaches the caller naming the client.
    """

    def __init__(self, sessions: list[ClientSession]):
        self._sessions = sessions
        self.endpoints = {
            s.client_id: SimpleNamespace(send=partial(self._step, s, s.respond), recv=partial(self._recv, s))
            for s in sessions
        }

    @staticmethod
    def _step(session: ClientSession, method, *args) -> None:
        try:
            method(*args)
        except Exception as exc:
            raise RuntimeError(f"client {session.client_id} failed: {type(exc).__name__}: {exc}") from exc

    def _recv(self, session: ClientSession, timeout: float) -> tuple[int, bytes]:
        self.train_pending()
        if not session.outbox:
            raise ChannelClosed(f"client {session.client_id} has no reply to send")
        return session.outbox.popleft()

    def train_pending(self) -> None:
        pending = [s for s in self._sessions if s.awaits is None and not s.done]
        if not pending:
            return
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
            self._step(session, session.upload, report)


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
class ServerRunResult:
    """The final model, one record per round, and each round's merged
    gradient payload (kept out of the records, so out of records.json).
    Round 1 starts from the initial model that the config gives, so the
    trajectory is that model plus each merged gradient in turn."""

    final_weights: nn.ModelParams
    rounds: list[RoundRecord]
    merged_gradients: list[dict]


def _read_losses(payload) -> np.ndarray:
    """An EVAL_RESULT's validation losses, one per client."""
    values = read_floats(payload, "values")
    if np.any(values < 0):
        raise ProtocolViolation("payload field 'values' has negative losses")
    return values


def server_run(
    settings: ExperimentConfig,
    endpoints: dict[int, object],
    transcript: list | None = None,
) -> ServerRunResult:
    """Drive all rounds over per-client endpoints; returns the decrypted final
    model and one record per round. Every frame passes ``send`` or ``expect``,
    in the round the run is in. Clients are polled in id order inside each
    phase, so runs and transcripts are reproducible; ``transcript`` gets the
    (cid, kind, body) of each inbound frame that decodes. A configuration that
    ``validate`` refuses raises ConfigError before any frame is sent; any later
    FedBoostError is sent to every client in an ABORT of the round the run was
    in, then raised. The server holds the public key only."""
    settings.validate()
    n = settings.n_clients
    clients = range(1, n + 1)
    r, public_key = 0, None
    records, merged_gradients = [], []

    def send(kind: MessageKind, payload) -> None:
        """A ``kind`` of round ``r`` to every client, in id order: ``payload``,
        encoded once, or ``payload(cid)``, each client's own. A failed send is a
        RoundAborted naming the client; an ABORT goes to every client that can
        still take it."""
        frame = None if callable(payload) else encode_message(Message(kind, r, payload), settings)
        for cid in sorted(endpoints):
            message = frame or encode_message(Message(kind, r, payload(cid)), settings)
            try:
                endpoints[cid].send(*message)
            except TransportError as exc:
                if kind == MessageKind.ABORT:
                    continue
                raise RoundAborted(f"sending {kind.name} to client {cid} in round {r}: {exc}") from exc

    def expect(cid: int, kind: MessageKind | None, read):
        """``read(payload)`` of the next frame from client ``cid``, which must
        be a ``kind`` of round ``r``; for ``kind`` None, the end of the run, the
        channel must close instead. Any ProtocolViolation, KeyMismatch or
        WeakKey raised receiving, decoding or reading the frame names the
        client, the kind and the round."""
        awaited = kind.name if kind else "end of run"
        where = f"{awaited} from client {cid} in round {r}"
        try:
            raw_kind, body = endpoints[cid].recv(timeout=settings.timeout_s)
            msg = decode_message(raw_kind, body, settings)
            if transcript is not None:
                transcript.append((cid, raw_kind, body))
            if msg.kind == kind and msg.round == r:
                return read(msg.payload)
        except TransportError as exc:
            if kind is None and isinstance(exc, ChannelClosed):
                return None
            raise RoundAborted(f"waiting for {where}: {exc}") from exc
        except (ProtocolViolation, KeyMismatch, WeakKey) as exc:
            raise type(exc)(f"client {cid}: {exc} ({awaited}, round {r})") from exc
        if msg.kind == MessageKind.ABORT:
            raise RoundAborted(f"client {cid} aborted: {msg.payload['reason']} ({awaited}, round {r})")
        if msg.kind != kind:
            raise ProtocolViolation(f"expected {where}, got {msg.kind.name}")
        # every client frame carries the server's round, 0 for the key offer
        raise ProtocolViolation(f"client {cid} sent {kind.name} for round {msg.round} during round {r}")

    def read_upload(payload):
        """A TRAIN_RESULT's gradient, checked but not decrypted, and training loss."""
        gradient = read_gradient(payload["gradient"], public_key, settings.layout.size, settings.quant)
        return gradient, read_floats(payload, "train_loss")[0]

    try:
        if set(endpoints) != set(clients):
            raise ProtocolViolation(f"need endpoints for clients 1..{n}")

        if settings.encrypted:
            public_key = expect(
                1, MessageKind.KEY_OFFER,
                lambda p: paillier.public_key_from_payload(p, settings.key_bits),
            )

        for r in range(1, settings.rounds + 1):
            durations: dict[str, float] = {}

            # round 1 starts from the initial model, which every client derives
            payload = {"gradient": merged_gradients[-1]} if merged_gradients else {}
            # in-thread loopback clients train in the first recv, TCP clients
            # once the broadcast reaches them; the phase spans both
            phase_start = time.monotonic()
            send(MessageKind.GLOBAL_GRADIENT, payload)
            results = [expect(cid, MessageKind.TRAIN_RESULT, read_upload) for cid in clients]
            gradients, train_losses = zip(*results)
            train_losses = np.array(train_losses)
            durations["train"] = time.monotonic() - phase_start

            validation = None
            if settings.aggregator == "fedboosting":
                phase_start = time.monotonic()
                if settings.encryption == "he_dp":
                    # the fused models are no uploads: every client scores all N
                    pieces = settings.quant.pieces
                    fused = agg.dp_fuse(public_key, gradients, settings.p_hat, pieces)
                    payload = {"models": [gradient_to_payload(g) for g in fused]}
                else:
                    # a client holds its own upload, so it gets its peers' only
                    uploads = [gradient_to_payload(g) for g in gradients]

                    def payload(cid):
                        return {"models": uploads[: cid - 1] + uploads[cid:]}

                send(MessageKind.FUSED_GRADIENT, payload)
                # column j holds every candidate model's loss on client j + 1's data
                validation = np.column_stack(
                    [expect(cid, MessageKind.EVAL_RESULT, _read_losses) for cid in clients]
                )
                weights = agg.fedboost_weights(
                    train_losses, agg.ValidationMatrix(validation), mode=settings.weighting_mode
                )
                durations["cross_validation"] = time.monotonic() - phase_start
            else:
                weights = agg.fedavg_weights(n)

            phase_start = time.monotonic()
            if settings.encrypted:
                merged = agg.merge_encrypted(public_key, gradients, weights, settings.quant.pieces)
            else:
                merged = agg.merge_plain(gradients, weights)
            merged_gradients.append(gradient_to_payload(merged))
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

        # r is now the last round, the round of the final exchange
        send(MessageKind.MERGED_GRADIENT, {"gradient": merged_gradients[-1]})
        final_values = expect(
            DESIGNATED_DECRYPTOR, MessageKind.FINAL_MODEL, lambda p: read_floats(p, "weights")
        )
        # the others only check the final gradient, so each ends by closing its channel
        for cid in clients:
            if cid != DESIGNATED_DECRYPTOR:
                expect(cid, None, None)
        final = nn.ModelParams(final_values, settings.layout)
        return ServerRunResult(final, records, merged_gradients)
    except FedBoostError as exc:
        send(MessageKind.ABORT, {"reason": f"{type(exc).__name__}: {exc}"})
        raise
