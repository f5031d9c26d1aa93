import dataclasses
import json
import time

import numpy as np
import pytest

from fedboost import aggregate as agg
from fedboost import nn, paillier, protocol
from fedboost import quantize as qz
from fedboost.config import ClientSpec, ExperimentConfig, two_client_noniid
from fedboost.datasets import DatasetSplit, GaussianSpec, LabeledData, generate_client_dataset, split
from fedboost.errors import (
    ChannelClosed,
    ConfigError,
    KeyMismatch,
    ProtocolViolation,
    RoundAborted,
    WeakKey,
)
from fedboost.protocol import (
    ClientSession,
    InThreadEndpoint,
    Message,
    MessageKind,
    ServerState,
    decode_message,
    derive_seed,
    encode_message,
    server_run,
)
from fedboost.runner import build_splits, run_experiment
from fedboost.transport import decode_frame, encode_frame

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def client_split(seed: int, n_each: int = 60) -> DatasetSplit:
    data = generate_client_dataset(
        [
            GaussianSpec((-2.0, 0.0), IDENTITY, 0, n_each),
            GaussianSpec((2.0, 0.0), IDENTITY, 1, n_each),
        ],
        seed=seed,
    )
    return split(data, 0.8, 0.2, seed=seed + 1)


def make_settings(n_clients: int = 2, **overrides) -> ExperimentConfig:
    """A cohort of ``n_clients``; the protocol tests hand each session its
    split (``client_split``) directly, so the client specs only size it."""
    spec = ClientSpec(clusters=(GaussianSpec((0.0, 0.0), IDENTITY, 0, 1),), seed=0)
    defaults = dict(
        clients=(spec,) * n_clients,
        rounds=2,
        aggregator="fedboosting",
        encryption="none",
        batch_size=8,
        epochs=1,
        quant=qz.QuantConfig(scale_exponent=12, pieces=100),
        key_bits=128,
        master_seed=17,
        timeout_s=20.0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class ReplayEndpoint:
    """Feeds a prerecorded inbound frame sequence; records what gets sent."""

    def __init__(self, frames: list[bytes]):
        self._frames = list(frames)
        self.sent: list[bytes] = []

    def send(self, kind: int, body: bytes) -> None:
        self.sent.append(encode_frame(kind, body))

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        if not self._frames:
            raise ChannelClosed("replay exhausted")
        return decode_frame(self._frames.pop(0))

    def close(self) -> None:
        pass


def cohort_key(settings) -> paillier.KeyPair | None:
    """The key pair the runner derives for an encrypted cohort and hands every client."""
    if not settings.encrypted:
        return None
    return paillier.keygen(settings.key_bits, derive_seed(settings.master_seed, "keygen"))


def key_source(settings, split) -> ClientSession:
    """Client 1, holding the cohort key pair."""
    return ClientSession(settings, 1, split, cohort_key(settings))


def run_loopback(settings, splits, transcript=None, missing=()):
    """Minimal in-test harness: clients run in this thread, each holding the
    cohort key pair; a ``missing`` client never replies."""
    keypair = cohort_key(settings)
    sessions = [ClientSession(settings, cid, split, keypair) for cid, split in enumerate(splits, 1)]
    endpoints = {
        s.client_id: ReplayEndpoint([]) if s.client_id in missing else InThreadEndpoint(s)
        for s in sessions
    }
    return server_run(settings, endpoints, transcript)


def server_says(endpoint, kind, round_no, payload) -> list[Message]:
    """Send one server message to ``endpoint``; every reply it queued."""
    endpoint.send(*encode_message(Message(kind, round_no, protocol.SERVER_ID, payload)))
    replies = []
    while True:
        try:
            replies.append(decode_message(*endpoint.recv()))
        except ChannelClosed:
            return replies


class TestMessageCodec:
    def test_roundtrip(self):
        msg = Message(MessageKind.TRAIN_RESULT, round=3, sender=2, payload={"train_loss": 0.25})
        kind, body = encode_message(msg)
        assert decode_message(kind, body) == msg

    def test_canonical_bytes(self):
        msg = Message(MessageKind.ABORT, round=1, sender=0, payload={"reason": "x"})
        _, body = encode_message(msg)
        assert body == b'{"payload":{"reason":"x"},"round":1,"sender":0}'

    def test_unknown_kind_byte(self):
        with pytest.raises(ProtocolViolation):
            decode_message(200, b'{"payload":{},"round":0,"sender":0}')

    def test_tampered_body(self):
        with pytest.raises(ProtocolViolation):
            decode_message(int(MessageKind.ABORT), b"{not json")

    def test_missing_fields(self):
        with pytest.raises(ProtocolViolation):
            decode_message(int(MessageKind.ABORT), b'{"payload":{}}')


class TestGradientPayloads:
    def test_plain_roundtrip(self):
        g = np.array([0.5, -1.25, 3.0])
        payload = protocol.gradient_to_payload(g)
        assert payload["format"] == "plain"
        assert np.array_equal(protocol.decode_gradient_payload(payload), g)

    def test_encrypted_roundtrip(self, key128):
        cfg = qz.QuantConfig(scale_exponent=8, pieces=10)
        q = qz.quantize(np.array([0.125, -0.5]), cfg)
        eg = agg.encrypt_gradient(key128.public, q)
        payload = protocol.gradient_to_payload(eg)
        out = protocol.decode_gradient_payload(payload, key128)
        assert np.allclose(out, [0.125, -0.5])

    def test_encrypted_wrong_key(self, key128, key64):
        cfg = qz.QuantConfig(scale_exponent=8, pieces=10)
        q = qz.quantize(np.array([0.125]), cfg)
        payload = protocol.gradient_to_payload(agg.encrypt_gradient(key64.public, q))
        with pytest.raises(KeyMismatch):
            protocol.decode_gradient_payload(payload, key128)


class TestKeyDistribution:
    def test_server_state_never_holds_secret_material(self, monkeypatch):
        states = []
        monkeypatch.setattr(
            protocol, "ServerState", lambda **kw: states.append(ServerState(**kw)) or states[-1]
        )
        settings = make_settings(encryption="he", rounds=1)
        run_loopback(settings, [client_split(1), client_split(2)])
        [state] = states
        assert state.public_key == cohort_key(settings).public
        _assert_no_keypair(state, path="ServerState")

    @pytest.mark.parametrize("client_id", [1, 2])
    @pytest.mark.parametrize("encryption", ["none", "he", "he_dp"])
    def test_client_refuses_a_key_delivery(self, encryption, client_id):
        settings = make_settings(encryption=encryption)
        session = ClientSession(settings, client_id, client_split(client_id), cohort_key(settings))
        endpoint = InThreadEndpoint(session)
        *before, reply = server_says(endpoint, MessageKind.KEY_DELIVER, 0, {"blob": "{}"})
        # client 1 of an encrypted cohort queued its key offer at startup
        offers = [MessageKind.KEY_OFFER] if settings.encrypted and client_id == 1 else []
        assert [m.kind for m in before] == offers
        assert session.done
        assert reply.kind == MessageKind.ABORT and reply.sender == client_id
        assert reply.payload["reason"] == "ProtocolViolation: client cannot handle KEY_DELIVER"


def _round_one(settings) -> Message:
    initial = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)
    return Message(
        MessageKind.GLOBAL_GRADIENT,
        round=1,
        sender=protocol.SERVER_ID,
        payload={
            "layout": [list(l) for l in settings.layout.layers],
            "weights": [float(x) for x in initial.values],
        },
    )


def _packed_payload(kp, settings) -> dict:
    """A valid packed gradient payload under ``kp``."""
    q = qz.quantize(np.full(settings.layout.size, 0.01), settings.quant)
    return protocol.gradient_to_payload(agg.encrypt_gradient(kp, q))


_KEY256 = paillier.keygen(256, seed=8)  # 2 slots: 42 entries in 21 ciphertexts
_PACKED = _packed_payload(_KEY256, make_settings(encryption="he", key_bits=256))


class TestMalformedPayloads:
    """A client that cannot decode a payload aborts with the cause instead of
    dying silently and leaving the server to wait out its timeout."""

    @pytest.mark.parametrize(
        "kind, round_no, payload, cause",
        [
            (MessageKind.GLOBAL_GRADIENT, 1, {}, "'layout' is missing"),
            (MessageKind.GLOBAL_GRADIENT, 1, {"layout": [[2, 8], [8, 2]], "weights": "x"}, "'weights'"),
            (MessageKind.GLOBAL_GRADIENT, 1, {"layout": [[2, 3], [3, 2]], "weights": []}, "layout differs"),
            (MessageKind.GLOBAL_GRADIENT, 2, {}, "'gradient' is missing"),
            (MessageKind.GLOBAL_GRADIENT, 2, {"gradient": {"format": "quantized"}}, "unknown gradient format"),
            (MessageKind.GLOBAL_GRADIENT, 2, {"gradient": {**_PACKED, "entries": 41}}, "41 entries, expected 42"),
            (MessageKind.GLOBAL_GRADIENT, 2, {"gradient": {**_PACKED, "entries": "42"}}, "'entries'"),
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                {"gradient": {**_PACKED, "ciphertexts": _PACKED["ciphertexts"][:-1]}},
                "20 ciphertexts cannot hold 42 entries at 2 per ciphertext",
            ),
            (MessageKind.GLOBAL_GRADIENT, 2, {"gradient": {**_PACKED, "ciphertexts": [7] * 21}}, "malformed"),
            (MessageKind.FUSED_GRADIENT, 1, {}, "'models' is missing"),
            (MessageKind.FUSED_GRADIENT, 1, {"models": [_PACKED]}, "1 models to cross-validate"),
            (MessageKind.FUSED_GRADIENT, 1, {"models": [_PACKED, {"n": _PACKED["n"]}]}, "'format'"),
            (MessageKind.MERGED_GRADIENT, 1, {"gradient": []}, "'gradient' is missing or mistyped"),
            # a merged gradient carries pieces=1; a raw upload relayed as one is refused
            (MessageKind.GLOBAL_GRADIENT, 2, {"gradient": _PACKED}, "'pieces' is 100, expected 1"),
            (MessageKind.GLOBAL_GRADIENT, 2, {"gradient": {**_PACKED, "pieces": 2}}, "'pieces' is 2, expected 1"),
            (MessageKind.GLOBAL_GRADIENT, 2, {"gradient": {**_PACKED, "pieces": 10**400}}, "'pieces' is 1000"),
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                {"gradient": {**_PACKED, "pieces": 1, "scale_exponent": 13}},
                "'scale_exponent' is 13, expected 12",
            ),
            # under he the models to score are the raw uploads, pieces=100
            (
                MessageKind.FUSED_GRADIENT,
                1,
                {"models": [_PACKED, {**_PACKED, "pieces": 101}]},
                "'pieces' is 101, expected 100",
            ),
            (MessageKind.FUSED_GRADIENT, 1, {"models": [{**_PACKED, "pieces": 10**400}] * 2}, "'pieces' is 1000"),
            (
                MessageKind.FUSED_GRADIENT,
                1,
                {"models": [{**_PACKED, "scale_exponent": 11}] * 2},
                "'scale_exponent' is 11, expected 12",
            ),
            (MessageKind.MERGED_GRADIENT, 1, {"gradient": {**_PACKED, "pieces": 10**400}}, "'pieces' is 1000"),
        ],
    )
    def test_client_aborts_promptly_naming_the_cause(self, kind, round_no, payload, cause):
        settings = make_settings(encryption="he", key_bits=256, rounds=1, timeout_s=20.0)
        session = ClientSession(settings, 2, client_split(2), _KEY256)
        if round_no == 2 or kind != MessageKind.GLOBAL_GRADIENT:
            session.handle(_round_one(settings))
        [reply] = server_says(InThreadEndpoint(session), kind, round_no, payload)
        assert session.done
        assert reply.kind == MessageKind.ABORT and reply.sender == 2
        assert reply.payload["reason"].startswith("ProtocolViolation: ")
        assert cause in reply.payload["reason"]

    @pytest.mark.parametrize(
        "round_no, payload, cause",
        [
            (1, {"layout": [[2, 8], [8, 2]], "weights": [10**400] + [0.0] * 41}, "'weights'"),
            (2, {"gradient": {"format": "plain", "values": [0.0] * 41 + [-(10**400)]}}, "'values'"),
        ],
    )
    def test_client_aborts_on_numbers_beyond_float_range(self, round_no, payload, cause):
        # json reads an integer literal of any length; float() of it overflows
        settings = make_settings(rounds=2)
        session = ClientSession(settings, 2, client_split(2))
        if round_no == 2:
            session.handle(_round_one(settings))
        endpoint = InThreadEndpoint(session)
        [reply] = server_says(endpoint, MessageKind.GLOBAL_GRADIENT, round_no, payload)
        assert session.done
        assert reply.kind == MessageKind.ABORT and reply.sender == 2
        assert reply.payload["reason"] == (
            f"ProtocolViolation: payload field {cause} has entries beyond float range"
        )

    @pytest.mark.parametrize("field", ["train_loss", "values", "weights"])
    def test_server_rejects_numbers_beyond_float_range(self, field):
        huge = 10**400
        # the final model's weights are read only after a fedavg round
        aggregator = "fedavg" if field == "weights" else "fedboosting"
        settings = make_settings(aggregator=aggregator, rounds=1)
        gradient = protocol.gradient_to_payload(np.zeros(42))
        endpoints = {}
        for cid in (1, 2):
            upload = {"gradient": gradient, "train_loss": huge if field == "train_loss" else 0.5}
            messages = [Message(MessageKind.TRAIN_RESULT, 1, cid, upload)]
            if field == "values":
                messages.append(Message(MessageKind.EVAL_RESULT, 1, cid, {"values": [huge, 0.5]}))
            if field == "weights" and cid == 1:
                weights = [huge] + [0.0] * 41
                messages.append(Message(MessageKind.FINAL_MODEL, 1, cid, {"weights": weights}))
            endpoints[cid] = ReplayEndpoint([encode_frame(*encode_message(m)) for m in messages])
        cause = f"client 1: payload field '{field}' .*beyond float range"
        with pytest.raises(ProtocolViolation, match=cause):
            server_run(settings, endpoints)

    @pytest.mark.parametrize(
        "gradient, cause",
        [
            ({"format": "plain", "values": [0.0] * 41}, "client 1: payload field 'values' has 41 entries"),
            ({"format": "plain", "values": [float("nan")] * 42}, "client 1: payload field 'values' has non-finite"),
            ({"format": "plain"}, "client 1: payload field 'values' is missing"),
            (None, "client 1: payload field 'gradient' is missing"),
        ],
    )
    def test_server_rejects_malformed_plain_upload(self, gradient, cause):
        settings = make_settings(rounds=1)
        # plain json.dumps: the canonical encoder refuses NaN, a peer need not
        body = json.dumps(
            {"payload": {"gradient": gradient, "train_loss": 0.5}, "round": 1, "sender": 1}
        ).encode()
        upload = encode_frame(int(MessageKind.TRAIN_RESULT), body)
        endpoints = {1: ReplayEndpoint([upload]), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation, match=cause):
            server_run(settings, endpoints)

    @pytest.mark.parametrize(
        "tamper, cause",
        [
            (lambda p: {**p, "entries": 43}, "gradient has 43 entries, expected 42"),
            (lambda p: {**p, "ciphertexts": p["ciphertexts"] * 2}, "42 ciphertexts cannot hold"),
            (lambda p: {**p, "format": "plain"}, "expected encrypted gradient"),
            # the piece count and scale must be the configured ones
            (lambda p: {**p, "pieces": 10**400}, "payload field 'pieces' is 1000"),
            (lambda p: {**p, "pieces": 101}, "payload field 'pieces' is 101, expected 100$"),
            (lambda p: {**p, "pieces": 99}, "payload field 'pieces' is 99, expected 100$"),
            (lambda p: {**p, "scale_exponent": 13}, "payload field 'scale_exponent' is 13, expected 12$"),
        ],
    )
    def test_server_rejects_packed_upload_with_wrong_counts(self, tamper, cause):
        settings = make_settings(encryption="he", key_bits=256, rounds=1)
        source = key_source(settings, client_split(1))
        frames = [encode_frame(*encode_message(m)) for m in source.startup()]
        bad = tamper(_packed_payload(source.keypair, settings))
        upload = Message(MessageKind.TRAIN_RESULT, 1, 1, {"gradient": bad, "train_loss": 0.5})
        frames.append(encode_frame(*encode_message(upload)))
        endpoints = {1: ReplayEndpoint(frames), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation, match=f"client 1: .*{cause}"):
            server_run(settings, endpoints)

    @pytest.mark.parametrize("aggregator", ["fedboosting", "fedavg"])
    def test_server_rejects_non_finite_train_loss(self, aggregator):
        settings = make_settings(aggregator=aggregator, rounds=1)
        gradient = protocol.gradient_to_payload(np.zeros(42))
        # plain json.dumps writes a bare NaN, which json.loads accepts
        body = json.dumps(
            {"payload": {"gradient": gradient, "train_loss": float("nan")}, "round": 1, "sender": 1}
        ).encode()
        upload = encode_frame(int(MessageKind.TRAIN_RESULT), body)
        endpoints = {1: ReplayEndpoint([upload]), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation, match="client 1: payload field 'train_loss' is nan"):
            server_run(settings, endpoints)

    def test_server_rejects_negative_validation_losses(self):
        settings = make_settings(rounds=1)
        gradient = protocol.gradient_to_payload(np.zeros(42))
        endpoints = {}
        for cid in (1, 2):
            upload = Message(MessageKind.TRAIN_RESULT, 1, cid, {"gradient": gradient, "train_loss": 0.5})
            scores = Message(MessageKind.EVAL_RESULT, 1, cid, {"values": [-1.0, 0.5]})
            endpoints[cid] = ReplayEndpoint([encode_frame(*encode_message(m)) for m in (upload, scores)])
        with pytest.raises(ProtocolViolation, match="client 1: payload field 'values' has negative"):
            server_run(settings, endpoints)


class TestInThreadEndpoint:
    """The loopback endpoint runs its client session in the caller's thread."""

    def test_startup_replies_arrive_in_order(self):
        endpoint = InThreadEndpoint(key_source(make_settings(encryption="he"), client_split(1)))
        assert decode_message(*endpoint.recv()).kind == MessageKind.KEY_OFFER
        with pytest.raises(ChannelClosed):
            endpoint.recv()

    def test_replies_are_the_encoded_frames(self):
        settings = make_settings()
        endpoint = InThreadEndpoint(ClientSession(settings, 2, client_split(2)))
        endpoint.send(*encode_message(_round_one(settings)))
        [expected] = ClientSession(settings, 2, client_split(2)).handle(_round_one(settings))
        assert endpoint.recv() == encode_message(expected)

    def test_recv_with_nothing_queued_names_the_client(self):
        endpoint = InThreadEndpoint(ClientSession(make_settings(), 2, client_split(2)))
        start = time.monotonic()
        with pytest.raises(ChannelClosed, match="client 2 has no reply"):
            endpoint.recv(timeout=20.0)
        assert time.monotonic() - start < 1.0

    def test_sends_after_the_session_ends_are_dropped(self):
        settings = make_settings()
        session = ClientSession(settings, 2, client_split(2))
        endpoint = InThreadEndpoint(session)
        assert server_says(endpoint, MessageKind.ABORT, 0, {"reason": "test"}) == []
        assert session.done
        round_one = _round_one(settings).payload
        assert server_says(endpoint, MessageKind.GLOBAL_GRADIENT, 1, round_one) == []
        assert session.round == 0 and session.weights is None

    def test_other_errors_reach_the_caller_naming_the_client(self, monkeypatch):
        handle = ClientSession.handle

        def crash_client_2(session, msg):
            if session.client_id == 2:
                raise ZeroDivisionError("division by zero")
            return handle(session, msg)

        monkeypatch.setattr(ClientSession, "handle", crash_client_2)
        with pytest.raises(RuntimeError, match="client 2 failed: ZeroDivisionError") as err:
            run_loopback(make_settings(rounds=1), [client_split(1), client_split(2)])
        assert isinstance(err.value.__cause__, ZeroDivisionError)


class TestServerConfigCheck:
    """server_run refuses what ExperimentConfig.validate refuses before it
    sends a frame."""

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(aggregator="fedavg", encryption="he_dp"), "encryption"),
            (dict(encryption="he_dp", p_hat=0.5), "p_hat"),
        ],
    )
    def test_refused_before_any_frame(self, overrides, field):
        endpoints = {1: ReplayEndpoint([]), 2: ReplayEndpoint([])}
        with pytest.raises(ConfigError) as err:
            server_run(make_settings(**overrides), endpoints)
        assert err.value.field == field
        assert [ep.sent for ep in endpoints.values()] == [[], []]


class TestRoundChecks:
    """Every frame carries the round its receiver is in, and a new round's
    broadcast the next one; any other round ends the run at once."""

    @pytest.mark.parametrize("shift", [-1, 5])
    @pytest.mark.parametrize(
        "kind",
        [
            MessageKind.KEY_OFFER,
            MessageKind.TRAIN_RESULT,
            MessageKind.EVAL_RESULT,
            MessageKind.FINAL_MODEL,
        ],
        ids=lambda kind: kind.name,
    )
    def test_server_refuses_a_client_frame_of_another_round(self, kind, shift):
        settings = make_settings(encryption="he", rounds=2)
        transcript = []
        run_loopback(settings, [client_split(1), client_split(2)], transcript)
        # the last frame of this kind: client 2's in round 2 for the per-client kinds
        at = max(i for i, (_cid, frame) in enumerate(transcript) if frame[4] == kind)
        cid, frame = transcript[at]
        msg = decode_message(*decode_frame(frame))
        bad = msg.round + shift
        transcript[at] = (cid, encode_frame(*encode_message(dataclasses.replace(msg, round=bad))))
        endpoints = {c: ReplayEndpoint([f for i, f in transcript if i == c]) for c in (1, 2)}
        cause = f"^client {cid} sent {kind.name} for round {bad} during round {msg.round}$"
        with pytest.raises(ProtocolViolation, match=cause):
            server_run(settings, endpoints)

    @pytest.mark.parametrize("shift", [-1, 8])
    @pytest.mark.parametrize(
        "kind",
        [
            MessageKind.KEY_DELIVER,
            MessageKind.GLOBAL_GRADIENT,
            MessageKind.FUSED_GRADIENT,
            MessageKind.MERGED_GRADIENT,
            MessageKind.FINAL_MODEL_REQUEST,
        ],
        ids=lambda kind: kind.name,
    )
    def test_client_aborts_on_a_server_frame_of_another_round(self, kind, shift):
        settings = make_settings(rounds=1)
        session = ClientSession(settings, 1, client_split(1))
        session.handle(_round_one(settings))
        expected = 2 if kind == MessageKind.GLOBAL_GRADIENT else 1
        bad = expected + shift
        [reply] = server_says(InThreadEndpoint(session), kind, bad, {})
        assert session.done
        assert reply.kind == MessageKind.ABORT and reply.sender == 1
        assert reply.payload["reason"] == (
            f"ProtocolViolation: {kind.name} for round {bad} at local round 1, "
            f"expected round {expected}"
        )


class TestServerAbortsEveryone:
    """Whatever ends a run after the config check, the server sends every
    client an ABORT with the error, and the error names the client at fault."""

    @staticmethod
    def _assert_every_client_aborted(endpoints, err, round_no=1):
        reason = f"{type(err.value).__name__}: {err.value}"
        for endpoint in endpoints.values():
            last = decode_message(*decode_frame(endpoint.sent[-1]))
            abort = Message(MessageKind.ABORT, round_no, protocol.SERVER_ID, {"reason": reason})
            assert last == abort

    @pytest.mark.parametrize(
        "kind, edit, error, cause",
        [
            pytest.param(
                MessageKind.KEY_OFFER,
                lambda m: dataclasses.replace(m, kind=MessageKind.KEY_DELIVER),
                ProtocolViolation,
                "^expected KEY_OFFER from client 1, got KEY_DELIVER$",
                id="key_delivery_for_the_offer",
            ),
            pytest.param(
                MessageKind.KEY_OFFER,
                lambda m: dataclasses.replace(m, payload={**m.payload, "key_bits": 192}),
                WeakKey,
                "modulus has 128 bits, expected 192$",
                id="offer_of_another_size",
            ),
            pytest.param(
                MessageKind.TRAIN_RESULT,
                lambda m: dataclasses.replace(m, kind=MessageKind.KEY_DELIVER),
                ProtocolViolation,
                "^expected TRAIN_RESULT from client 2, got KEY_DELIVER$",
                id="key_delivery_for_an_upload",
            ),
            pytest.param(
                MessageKind.TRAIN_RESULT,
                lambda m: dataclasses.replace(m, sender=1),
                ProtocolViolation,
                "^message from endpoint 2 claims sender 1$",
                id="another_sender",
            ),
            pytest.param(
                MessageKind.TRAIN_RESULT,
                lambda m: dataclasses.replace(m, payload={**m.payload, "train_loss": "low"}),
                ProtocolViolation,
                "^client 2: payload field 'train_loss' is missing or mistyped$",
                id="mistyped_train_loss",
            ),
            pytest.param(
                MessageKind.EVAL_RESULT,
                lambda m: dataclasses.replace(m, payload={"values": [-1.0, 0.5]}),
                ProtocolViolation,
                "^client 2: payload field 'values' has negative losses$",
                id="negative_validation_loss",
            ),
            pytest.param(
                MessageKind.FINAL_MODEL,
                lambda m: dataclasses.replace(m, payload={"weights": [0.0]}),
                ProtocolViolation,
                "^client 1: payload field 'weights' has 1 entries, expected 42$",
                id="final_model_of_another_size",
            ),
        ],
    )
    def test_tampered_client_frame(self, kind, edit, error, cause):
        settings = make_settings(encryption="he", rounds=1)
        transcript = []
        run_loopback(settings, [client_split(1), client_split(2)], transcript)
        # the last frame of this kind: client 2's for the per-client kinds
        at = max(i for i, (_cid, frame) in enumerate(transcript) if frame[4] == kind)
        cid, frame = transcript[at]
        msg = decode_message(*decode_frame(frame))
        transcript[at] = (cid, encode_frame(*encode_message(edit(msg))))
        endpoints = {c: ReplayEndpoint([f for i, f in transcript if i == c]) for c in (1, 2)}
        with pytest.raises(error, match=cause) as err:
            server_run(settings, endpoints)
        self._assert_every_client_aborted(endpoints, err, msg.round)

    def test_eval_result_of_another_round(self):
        settings = make_settings(rounds=1)
        transcript = []
        run_loopback(settings, [client_split(1), client_split(2)], transcript)
        at = max(i for i, (_cid, frame) in enumerate(transcript) if frame[4] == MessageKind.EVAL_RESULT)
        msg = decode_message(*decode_frame(transcript[at][1]))
        assert msg.sender == 2
        transcript[at] = (2, encode_frame(*encode_message(dataclasses.replace(msg, round=7))))
        endpoints = {c: ReplayEndpoint([f for i, f in transcript if i == c]) for c in (1, 2)}
        with pytest.raises(ProtocolViolation, match="^client 2 sent EVAL_RESULT for round 7") as err:
            server_run(settings, endpoints)
        self._assert_every_client_aborted(endpoints, err)

    def test_upload_under_another_key(self):
        settings = make_settings(encryption="he", rounds=1)
        keypair, foreign = cohort_key(settings), paillier.keygen(settings.key_bits, seed=99)
        frames = {}
        for cid, key in ((1, keypair), (2, foreign)):
            upload = {"gradient": _packed_payload(key, settings), "train_loss": 0.5}
            frames[cid] = [Message(MessageKind.TRAIN_RESULT, 1, cid, upload)]
        frames[1].insert(0, key_source(settings, client_split(1)).startup()[0])
        endpoints = {
            cid: ReplayEndpoint([encode_frame(*encode_message(m)) for m in messages])
            for cid, messages in frames.items()
        }
        cause = "^client 2: gradient is encrypted under a different key$"
        with pytest.raises(KeyMismatch, match=cause) as err:
            server_run(settings, endpoints)
        self._assert_every_client_aborted(endpoints, err)


def _assert_no_keypair(obj, path: str, seen=None):
    seen = seen if seen is not None else set()
    if id(obj) in seen:
        return
    seen.add(id(obj))
    assert not isinstance(obj, paillier.KeyPair), f"secret key material at {path}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _assert_no_keypair(getattr(obj, f.name), f"{path}.{f.name}", seen)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _assert_no_keypair(v, f"{path}[{k!r}]", seen)
    elif isinstance(obj, (list, tuple, set)):
        for i, v in enumerate(obj):
            _assert_no_keypair(v, f"{path}[{i}]", seen)


class TestClientSession:
    def _trained_session(self, settings, rounds_payloads=None):
        session = ClientSession(settings, 2, client_split(2))
        initial = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)
        msg = Message(
            MessageKind.GLOBAL_GRADIENT,
            round=1,
            sender=protocol.SERVER_ID,
            payload={
                "layout": [list(l) for l in settings.layout.layers],
                "weights": [float(x) for x in initial.values],
            },
        )
        replies = session.handle(msg)
        return session, initial, replies

    def test_round_one_trains_without_keys(self):
        settings = make_settings()
        session, initial, replies = self._trained_session(settings)
        assert [m.kind for m in replies] == [MessageKind.TRAIN_RESULT]
        gradient = protocol.decode_gradient_payload(replies[0].payload["gradient"])
        assert gradient.shape == (42,)
        assert np.any(gradient != 0)
        assert np.array_equal(session.weights.values, initial.values)

    def test_zero_fused_gradient_scores_current_weights(self):
        settings = make_settings()
        session, _initial, _ = self._trained_session(settings)
        before = session.weights.values.copy()
        zero = protocol.gradient_to_payload(np.zeros(42))
        value = session.evaluate_fused(zero)
        expected, _acc = nn.evaluate(session.weights, session.split.validation)
        assert value == expected
        assert np.array_equal(session.weights.values, before)

    def test_eval_result_carries_full_row(self):
        settings = make_settings()
        session, _initial, _ = self._trained_session(settings)
        fused = Message(
            MessageKind.FUSED_GRADIENT,
            round=1,
            sender=protocol.SERVER_ID,
            payload={"models": [protocol.gradient_to_payload(np.zeros(42)) for _ in range(2)]},
        )
        replies = session.handle(fused)
        assert len(replies) == 1 and replies[0].kind == MessageKind.EVAL_RESULT
        assert len(replies[0].payload["values"]) == 2

    def test_final_zero_gradient_keeps_weights(self):
        settings = make_settings(rounds=1)
        session, _initial, _ = self._trained_session(settings)
        merged = Message(
            MessageKind.MERGED_GRADIENT,
            round=1,
            sender=protocol.SERVER_ID,
            payload={"gradient": protocol.gradient_to_payload(np.zeros(42))},
        )
        session.handle(merged)
        assert np.array_equal(session.final_weights.values, session.weights.values)

    def test_final_before_last_round_rejected(self):
        settings = make_settings(rounds=3)
        session, _initial, _ = self._trained_session(settings)
        merged = Message(
            MessageKind.MERGED_GRADIENT,
            round=1,
            sender=protocol.SERVER_ID,
            payload={"gradient": protocol.gradient_to_payload(np.zeros(42))},
        )
        with pytest.raises(ProtocolViolation):
            session.handle(merged)

    @pytest.mark.parametrize("client_id", [1, 2])
    def test_every_encrypted_client_needs_the_key_pair(self, client_id):
        with pytest.raises(ValueError, match="every client of an encrypted cohort needs"):
            ClientSession(make_settings(encryption="he"), client_id, client_split(client_id))

    def test_final_wrong_key_rejected(self, key64):
        settings = make_settings(rounds=1, encryption="he")
        session = key_source(settings, client_split(1))
        initial = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)
        session.handle(
            Message(
                MessageKind.GLOBAL_GRADIENT,
                round=1,
                sender=protocol.SERVER_ID,
                payload={
                    "layout": [list(l) for l in settings.layout.layers],
                    "weights": [float(x) for x in initial.values],
                },
            )
        )
        foreign = agg.encrypt_gradient(
            key64.public, qz.quantize(np.zeros(42), settings.quant)
        )
        merged = Message(
            MessageKind.MERGED_GRADIENT,
            round=1,
            sender=protocol.SERVER_ID,
            payload={"gradient": protocol.gradient_to_payload(foreign)},
        )
        with pytest.raises(KeyMismatch):
            session.handle(merged)

    def test_out_of_order_round_rejected(self):
        settings = make_settings()
        session, _initial, _ = self._trained_session(settings)
        stale = Message(
            MessageKind.GLOBAL_GRADIENT,
            round=5,
            sender=protocol.SERVER_ID,
            payload={"gradient": protocol.gradient_to_payload(np.zeros(42))},
        )
        with pytest.raises(ProtocolViolation):
            session.handle(stale)


def reference_fedavg(settings: ExperimentConfig, splits) -> nn.ModelParams:
    """Monolithic single-process loop mirroring the protocol's seed schedule."""
    params = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)
    for r in range(1, settings.rounds + 1):
        grads = []
        for cid in range(1, len(splits) + 1):
            report = nn.train_local(
                params,
                splits[cid - 1],
                settings.batch_size,
                settings.epochs,
                settings.optimizer,
                derive_seed(settings.master_seed, "shuffle", r, cid),
            )
            grads.append(report.gradient)
        merged = np.zeros_like(params.values)
        for g in grads:
            merged += (1.0 / len(grads)) * g
        params = nn.apply_gradient(params, merged)
    return params


def reference_centralized(settings: ExperimentConfig, splits) -> tuple[nn.ModelParams, list]:
    """One trainer on the pooled training data in client 1's batch order; the
    final model and each round's loss on the combined test set."""
    test = LabeledData.concat([s.test for s in splits])
    pooled = DatasetSplit(LabeledData.concat([s.train for s in splits]), splits[0].validation, test)
    params = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)
    losses = []
    for r in range(1, settings.rounds + 1):
        report = nn.train_local(
            params,
            pooled,
            settings.batch_size,
            settings.epochs,
            settings.optimizer,
            derive_seed(settings.master_seed, "shuffle", r, 1),
        )
        params = nn.apply_gradient(params, report.gradient)
        losses.append(nn.evaluate(params, test)[0])
    return params, losses


class TestServerRun:
    def test_smoke_single_round(self):
        settings = make_settings(rounds=1)
        splits = [client_split(1), client_split(2)]
        result = run_loopback(settings, splits)
        assert result.final_weights.values.shape == (42,)
        assert len(result.rounds) == 1
        record = result.rounds[0]
        assert len(record.train_losses) == 2
        assert np.array(record.validation).shape == (2, 2)
        assert abs(sum(record.weights) - 1.0) < 1e-12

    def test_fedavg_plaintext_matches_reference_loop_bitwise(self):
        settings = make_settings(aggregator="fedavg", rounds=3)
        splits = [client_split(1), client_split(2)]
        result = run_loopback(settings, splits)
        expected = reference_fedavg(settings, splits)
        assert np.array_equal(result.final_weights.values, expected.values)

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_centralized_matches_reference_loop_bitwise(self, transport):
        settings = ExperimentConfig(
            clients=two_client_noniid(300, master_seed=4),
            aggregator="centralized",
            rounds=3,
            master_seed=4,
            transport=transport,
        )
        result = run_experiment(settings)
        expected, losses = reference_centralized(settings, build_splits(settings))
        assert np.array_equal(result.final_params.values, expected.values)
        assert [rec.global_test_loss for rec in result.records] == losses

    def test_he_merge_stays_within_quantization_bound_of_plain_oracle(self):
        settings = make_settings(aggregator="fedavg", encryption="he", rounds=1)
        splits = [client_split(1), client_split(2)]
        result = run_loopback(settings, splits)
        # oracle: same round-1 gradients merged in plain float arithmetic
        initial = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)
        grads = [
            nn.train_local(
                initial,
                splits[cid - 1],
                settings.batch_size,
                settings.epochs,
                settings.optimizer,
                derive_seed(settings.master_seed, "shuffle", 1, cid),
            ).gradient
            for cid in (1, 2)
        ]
        oracle = initial.values + agg.merge_plain(grads, agg.fedavg_weights(2))
        P, S = settings.quant.pieces, settings.quant.scale
        bound = sum(np.abs(g) for g in grads) / (2 * P) + 2 * P / (2 * S)
        assert np.all(np.abs(result.final_weights.values - oracle) <= bound)

    def test_deterministic_he_dp_runs(self):
        settings = make_settings(encryption="he_dp", rounds=2)
        splits = [client_split(1), client_split(2)]
        a = run_loopback(settings, splits)
        b = run_loopback(settings, splits)
        assert np.array_equal(a.final_weights.values, b.final_weights.values)
        assert a.merged_gradients == b.merged_gradients

    def test_transcript_replay_reproduces_records(self):
        settings = make_settings(encryption="he_dp", rounds=2)
        splits = [client_split(1), client_split(2)]
        transcript = []
        live = run_loopback(settings, splits, transcript=transcript)
        per_client = {cid: [] for cid in (1, 2)}
        for cid, frame in transcript:
            per_client[cid].append(frame)
        replay_eps = {cid: ReplayEndpoint(frames) for cid, frames in per_client.items()}
        replayed = server_run(settings, replay_eps)
        for a, b in zip(live.rounds, replayed.rounds):
            assert a.train_losses == b.train_losses
            assert a.validation == b.validation
            assert a.weights == b.weights
        assert live.merged_gradients == replayed.merged_gradients
        assert np.array_equal(live.final_weights.values, replayed.final_weights.values)

    def test_unresponsive_client_aborts_round(self):
        settings = make_settings(timeout_s=20.0)
        splits = [client_split(1), client_split(2)]
        start = time.monotonic()
        with pytest.raises(RoundAborted, match="TRAIN_RESULT from client 2"):
            run_loopback(settings, splits, missing=(2,))
        assert time.monotonic() - start < 5.0  # at once, not after timeout_s

    def test_empty_training_set_propagates_as_abort(self):
        settings = make_settings()
        empty = LabeledData(np.zeros((0, 2)), np.zeros(0, dtype=int))
        crippled = DatasetSplit(train=empty, validation=client_split(2).validation, test=empty)
        with pytest.raises(RoundAborted, match="EmptyDataset"):
            run_loopback(settings, [client_split(1), crippled])

    def test_tampered_frame_is_protocol_violation(self):
        settings = make_settings(rounds=1, timeout_s=5.0)
        state_frames = [encode_frame(int(MessageKind.TRAIN_RESULT), b"{broken")]
        endpoints = {1: ReplayEndpoint(state_frames), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation):
            server_run(settings, endpoints)

    def test_sender_spoof_rejected(self):
        settings = make_settings(rounds=1, timeout_s=5.0)
        msg = Message(MessageKind.TRAIN_RESULT, round=1, sender=2, payload={"gradient": {}, "train_loss": 0.0})
        endpoints = {
            1: ReplayEndpoint([encode_frame(*encode_message(msg))]),
            2: ReplayEndpoint([]),
        }
        with pytest.raises(ProtocolViolation):
            server_run(settings, endpoints)
