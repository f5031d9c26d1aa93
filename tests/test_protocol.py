import dataclasses
import json
import socket
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from fedboost import aggregate as agg
from fedboost import nn, paillier, protocol
from fedboost import quantize as qz
from fedboost.config import ClientSpec, ExperimentConfig, two_client_noniid
from fedboost.datasets import DatasetSplit, GaussianSpec, LabeledData, generate_client_dataset, split
from fedboost.errors import (
    ChannelClosed,
    ConfigError,
    FedBoostError,
    KeyMismatch,
    ProtocolViolation,
    RoundAborted,
    WeakKey,
)
from fedboost.protocol import (
    ClientSession,
    InThreadCohort,
    Message,
    MessageKind,
    ServerState,
    client_run,
    decode_message,
    derive_seed,
    encode_message,
    server_run,
)
from fedboost.runner import build_splits, run_experiment
from fedboost.transport import TcpEndpoint, decode_frame, encode_frame

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
    """Minimal in-test harness: clients run in this thread as one cohort, each
    holding the cohort key pair; a ``missing`` client never replies."""
    keypair = cohort_key(settings)
    sessions = [ClientSession(settings, cid, split, keypair) for cid, split in enumerate(splits, 1)]
    endpoints = {cid: ReplayEndpoint([]) for cid in missing}
    endpoints.update(InThreadCohort([s for s in sessions if s.client_id not in missing]).endpoints)
    return server_run(settings, endpoints, transcript)


def in_thread(session: ClientSession):
    """The server's endpoint to ``session`` run in this thread, a cohort of one."""
    return InThreadCohort([session]).endpoints[session.client_id]


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

    @pytest.mark.parametrize(
        "body",
        [
            b'{"payload":{},"round":true,"sender":1}',
            b'{"payload":{},"round":1,"sender":true}',
            b'{"payload":{},"round":true,"sender":true}',
        ],
    )
    def test_round_and_sender_are_integers_not_bools(self, body):
        with pytest.raises(ProtocolViolation, match="must carry payload/round/sender"):
            decode_message(int(MessageKind.TRAIN_RESULT), body)


# bodies that get past the JSON parser's own error types
HUGE_INT_BODY = b'{"payload":{"train_loss":' + b"1" * 5000 + b'},"round":1,"sender":2}'
DEEP_BODY = b"[" * 100_000

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)
BODIES = st.one_of(
    st.binary(max_size=200),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.builds(
        lambda p, r, s: json.dumps({"payload": p, "round": r, "sender": s}).encode(),
        JSON_VALUES,
        JSON_VALUES,
        JSON_VALUES,
    ),
)


class TestDecodeAnyBytes:
    @hypothesis_settings(max_examples=300, deadline=None)
    @given(frame=st.one_of(st.binary(max_size=64), st.builds(encode_frame, st.integers(0, 255), BODIES)))
    @example(frame=encode_frame(MessageKind.TRAIN_RESULT, HUGE_INT_BODY))
    @example(frame=encode_frame(MessageKind.TRAIN_RESULT, DEEP_BODY))
    def test_a_message_or_a_package_error(self, frame):
        try:
            msg = decode_message(*decode_frame(frame))
        except FedBoostError:
            return
        assert isinstance(msg, Message)


class TestGradientPayloads:
    def test_plain_roundtrip(self):
        g = np.array([0.5, -1.25, 3.0])
        payload = protocol.gradient_to_payload(g)
        assert payload == {"values": [0.5, -1.25, 3.0]}
        quant = qz.QuantConfig()
        assert np.array_equal(protocol.decode_gradient_payload(payload, None, 3, quant), g)

    def test_encrypted_roundtrip(self, key128):
        cfg = qz.QuantConfig(scale_exponent=8, pieces=10)
        q = qz.quantize(np.array([0.125, -0.5]), cfg)
        eg = agg.encrypt_gradient(key128.public, q)
        payload = protocol.gradient_to_payload(eg)
        assert set(payload) == {"ciphertexts", "n"}
        out = protocol.decode_gradient_payload(payload, key128, 2, cfg)
        assert np.allclose(out, [0.125, -0.5])

    def test_encrypted_wrong_key(self, key128, key64):
        cfg = qz.QuantConfig(scale_exponent=8, pieces=10)
        q = qz.quantize(np.array([0.125]), cfg)
        payload = protocol.gradient_to_payload(agg.encrypt_gradient(key64.public, q))
        with pytest.raises(KeyMismatch):
            protocol.decode_gradient_payload(payload, key128, 1, cfg)


# a 7-entry model under a 128-bit key: one slot, so 7 ciphertexts
FUZZ_SETTINGS = make_settings(encryption="he", n_hidden=1)
FUZZ_KEY = cohort_key(FUZZ_SETTINGS)
FUZZ_ENTRIES = FUZZ_SETTINGS.layout.size


def _ciphertexts(pk: paillier.PublicKey):
    """Wire ciphertexts, valid or not: bare lowercase hex in range, other
    spellings of in-range values, 0 and values >= n^2, and other JSON."""
    n2 = pk.n_squared
    in_range = st.integers(1, n2 - 1)
    return st.one_of(
        in_range.map(paillier.int_to_hex),
        in_range.map(lambda c: format(c, "X")),
        in_range.map(lambda c: "0x" + format(c, "x")),
        st.sampled_from([0, n2, n2 + 1, n2 ** 40]).map(paillier.int_to_hex),
        st.integers(-(2**2000), 2**2000),
        JSON_VALUES,
    )


def _moduli(pk: paillier.PublicKey):
    return st.one_of(
        st.just(paillier.int_to_hex(pk.n)),
        st.just(format(pk.n, "X")),
        st.just("0x" + format(pk.n, "x")),
        st.integers(1, 2**300).map(paillier.int_to_hex),
        st.just(pk.n),
        JSON_VALUES,
    )


def _numbers():
    return st.one_of(
        st.floats(),
        st.integers(-(10**400), 10**400),
        st.booleans(),
        st.text(max_size=3),
        st.none(),
    )


def _gradient_payloads(pk: paillier.PublicKey, entries: int):
    """JSON-shaped gradient payloads: good ones, ones with one bad entry,
    wrong counts, and fields missing, mistyped or extra."""
    good_hex = st.integers(1, pk.n_squared - 1).map(paillier.int_to_hex)
    good_float = st.floats(allow_nan=False, allow_infinity=False)

    def lists(good, bad):
        return st.one_of(
            st.lists(good, min_size=entries, max_size=entries),
            st.builds(
                lambda xs, x, i: xs[:i] + [x] + xs[i + 1 :],
                st.lists(good, min_size=entries, max_size=entries),
                bad,
                st.integers(0, entries - 1),
            ),
            st.lists(st.one_of(good, bad), max_size=entries + 2),
            JSON_VALUES,
        )

    ciphertexts = lists(good_hex, _ciphertexts(pk))
    values = lists(good_float, _numbers())
    payloads = st.one_of(
        st.fixed_dictionaries({"ciphertexts": ciphertexts, "n": st.just(paillier.int_to_hex(pk.n))}),
        st.fixed_dictionaries({"ciphertexts": ciphertexts, "n": _moduli(pk)}),
        st.fixed_dictionaries({"values": values}),
        st.fixed_dictionaries(
            {}, optional={"ciphertexts": ciphertexts, "n": _moduli(pk), "values": values}
        ),
    )
    # through the JSON codec, as a peer's payload arrives
    return payloads.map(lambda p: json.loads(json.dumps(p)))


class TestPayloadDecodersFuzz:
    """Any JSON-shaped gradient payload decodes to a value or is refused as a
    ProtocolViolation or KeyMismatch, never with another exception."""

    REFUSALS = (ProtocolViolation, KeyMismatch)

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(payload=_gradient_payloads(FUZZ_KEY.public, FUZZ_ENTRIES))
    def test_encrypted_gradient_from_payload(self, payload):
        try:
            eg = protocol.encrypted_gradient_from_payload(
                payload, FUZZ_KEY.public, FUZZ_ENTRIES, FUZZ_SETTINGS.quant
            )
        except self.REFUSALS:
            return
        assert isinstance(eg, agg.EncryptedGradient) and eg.entries == FUZZ_ENTRIES

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(payload=_gradient_payloads(FUZZ_KEY.public, FUZZ_ENTRIES), encrypted=st.booleans())
    def test_decode_gradient_payload(self, payload, encrypted):
        keypair = FUZZ_KEY if encrypted else None
        try:
            g = protocol.decode_gradient_payload(
                payload, keypair, FUZZ_ENTRIES, FUZZ_SETTINGS.quant
            )
        except self.REFUSALS:
            return
        assert g.shape == (FUZZ_ENTRIES,) and np.all(np.isfinite(g))

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        gradient=st.one_of(_gradient_payloads(FUZZ_KEY.public, FUZZ_ENTRIES), JSON_VALUES),
        encrypted=st.booleans(),
    )
    def test_server_receive_gradient(self, gradient, encrypted):
        settings = FUZZ_SETTINGS if encrypted else dataclasses.replace(FUZZ_SETTINGS, encryption="none")
        state = ServerState(settings=settings, round=1, public_key=FUZZ_KEY.public if encrypted else None)
        try:
            g = protocol._receive_gradient(state, {"gradient": gradient, "train_loss": 0.5})
        except self.REFUSALS:
            return
        # at 128 bits a ciphertext holds one entry
        assert len(g) == FUZZ_ENTRIES


class Recorder:
    """The server's endpoint to one client; keeps every message it carries,
    in both directions."""

    def __init__(self, inner):
        self.inner = inner
        self.messages: list[Message] = []

    def send(self, kind: int, body: bytes) -> None:
        self.messages.append(decode_message(kind, body))
        self.inner.send(kind, body)

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        kind, body = self.inner.recv(timeout)
        self.messages.append(decode_message(kind, body))
        return kind, body


class TestWireShape:
    """Every party takes the entry count, the scale and the piece count from
    its config and the key size from the modulus, so a payload carries only
    the numbers and, when encrypted, the modulus that tells the key."""

    @pytest.mark.parametrize("encryption", ["none", "he", "he_dp"])
    def test_a_payload_carries_only_what_the_config_cannot_give(self, encryption):
        settings = make_settings(encryption=encryption, rounds=2)
        keypair = cohort_key(settings)
        sessions = [ClientSession(settings, cid, client_split(cid), keypair) for cid in (1, 2)]
        endpoints = {
            cid: Recorder(endpoint) for cid, endpoint in InThreadCohort(sessions).endpoints.items()
        }
        server_run(settings, endpoints)
        messages = [m for endpoint in endpoints.values() for m in endpoint.messages]
        shape = {"values"} if keypair is None else {"ciphertexts", "n"}
        gradients = Counter()
        for msg in messages:
            if msg.kind == MessageKind.FUSED_GRADIENT:
                payloads = msg.payload["models"]
            else:
                payloads = [msg.payload["gradient"]] if "gradient" in msg.payload else []
            for payload in payloads:
                assert set(payload) == shape, msg.kind.name
            gradients[msg.kind.name] += len(payloads)
        # round 2's broadcast, 2 rounds of uploads and of 2 models to score per
        # client, and the merged gradient to both clients
        assert gradients == Counter(
            GLOBAL_GRADIENT=2, TRAIN_RESULT=4, FUSED_GRADIENT=8, MERGED_GRADIENT=2
        )
        offers = [m.payload for m in messages if m.kind == MessageKind.KEY_OFFER]
        assert offers == ([] if keypair is None else [{"n": format(keypair.public.n, "x")}])


def _run_and_summarize(settings):
    """The final model and every round's losses, scores and boost weights."""
    result = run_loopback(settings, [client_split(1), client_split(2)])
    rounds = [(r.train_losses, r.validation, r.weights) for r in result.rounds]
    return result.final_weights.values.tolist(), rounds


class TestStaleWireFields:
    """Fields that older payloads carried, and that the config now gives, are
    never read: a peer still sending them, whatever their value, runs exactly
    as if it did not."""

    @pytest.mark.parametrize(
        "encryption, field, value",
        [
            ("he", "format", "plain"),
            ("he", "entries", 41),
            pytest.param("he", "pieces", 10**400, id="he-pieces-10**400"),
            ("he", "scale_exponent", 13),
            ("none", "format", "encrypted"),
            ("none", "entries", 41),
        ],
    )
    def test_gradient_payload(self, monkeypatch, encryption, field, value):
        settings = make_settings(encryption=encryption, rounds=2)
        clean = _run_and_summarize(settings)
        original = protocol.gradient_to_payload
        monkeypatch.setattr(protocol, "gradient_to_payload", lambda g: {**original(g), field: value})
        assert _run_and_summarize(settings) == clean

    @pytest.mark.parametrize("key_bits", [128.9, "128", 64])
    def test_key_offer(self, monkeypatch, key_bits):
        settings = make_settings(encryption="he", rounds=1)
        clean = _run_and_summarize(settings)
        original = paillier.public_key_to_payload
        monkeypatch.setattr(
            paillier, "public_key_to_payload", lambda pk: {**original(pk), "key_bits": key_bits}
        )
        assert _run_and_summarize(settings) == clean


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
        endpoint = in_thread(session)
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
            (MessageKind.GLOBAL_GRADIENT, 2, {"gradient": {"values": [0.0] * 42}}, "'ciphertexts' is missing"),
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                {"gradient": {**_PACKED, "ciphertexts": _PACKED["ciphertexts"][:-1]}},
                "20 ciphertexts cannot hold 42 entries at 2 per ciphertext",
            ),
            (MessageKind.GLOBAL_GRADIENT, 2, {"gradient": {**_PACKED, "ciphertexts": [7] * 21}}, "malformed"),
            (MessageKind.FUSED_GRADIENT, 1, {}, "'models' is missing"),
            (MessageKind.FUSED_GRADIENT, 1, {"models": [_PACKED]}, "1 models to cross-validate"),
            (MessageKind.FUSED_GRADIENT, 1, {"models": [_PACKED, {"n": _PACKED["n"]}]}, "'ciphertexts' is missing"),
            (MessageKind.FUSED_GRADIENT, 1, {"models": [_PACKED, {**_PACKED, "n": "0x1"}]}, "malformed modulus"),
            (MessageKind.MERGED_GRADIENT, 1, {"gradient": []}, "'gradient' is missing or mistyped"),
        ],
    )
    def test_client_aborts_promptly_naming_the_cause(self, kind, round_no, payload, cause):
        settings = make_settings(encryption="he", key_bits=256, rounds=1, timeout_s=20.0)
        session = ClientSession(settings, 2, client_split(2), _KEY256)
        if round_no == 2 or kind != MessageKind.GLOBAL_GRADIENT:
            session.handle(_round_one(settings))
        [reply] = server_says(in_thread(session), kind, round_no, payload)
        assert session.done
        assert reply.kind == MessageKind.ABORT and reply.sender == 2
        assert reply.payload["reason"].startswith("ProtocolViolation: ")
        assert cause in reply.payload["reason"]

    @pytest.mark.parametrize(
        "round_no, payload, cause",
        [
            (1, {"layout": [[2, 8], [8, 2]], "weights": [10**400] + [0.0] * 41}, "'weights'"),
            (2, {"gradient": {"values": [0.0] * 41 + [-(10**400)]}}, "'values'"),
        ],
    )
    def test_client_aborts_on_numbers_beyond_float_range(self, round_no, payload, cause):
        # json reads an integer literal of any length; float() of it overflows
        settings = make_settings(rounds=2)
        session = ClientSession(settings, 2, client_split(2))
        if round_no == 2:
            session.handle(_round_one(settings))
        endpoint = in_thread(session)
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
            ({"values": [0.0] * 41}, "client 1: payload field 'values' has 41 entries"),
            ({"values": [float("nan")] * 42}, "client 1: payload field 'values' has non-finite"),
            ({}, "client 1: payload field 'values' is missing"),
            # a packed upload into a plaintext cohort
            (_PACKED, "client 1: payload field 'values' is missing or mistyped$"),
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
            (lambda p: {**p, "ciphertexts": p["ciphertexts"] * 2}, "42 ciphertexts cannot hold"),
            # a plaintext upload into an encrypted cohort
            (lambda p: {"values": [0.0] * 42}, "payload field 'ciphertexts' is missing or mistyped$"),
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


def _trained_alone(session: ClientSession, msg: Message) -> list[tuple[int, bytes]]:
    """What ``session`` answers ``msg`` with on TCP, where it trains alone."""
    assert session.respond(*encode_message(msg)) == []
    return session.upload()


def _diverging_round_one(settings) -> Message:
    """Round one with weights so large that training diverges."""
    msg = _round_one(settings)
    return dataclasses.replace(msg, payload={**msg.payload, "weights": [1e308] * settings.layout.size})


class TestInThreadCohort:
    """The loopback cohort runs its client sessions in the caller's thread and
    trains them together on the first recv after a broadcast."""

    def test_startup_replies_arrive_in_order(self):
        endpoint = in_thread(key_source(make_settings(encryption="he"), client_split(1)))
        assert decode_message(*endpoint.recv()).kind == MessageKind.KEY_OFFER
        with pytest.raises(ChannelClosed):
            endpoint.recv()

    @pytest.mark.parametrize("encryption", ["none", "he"])
    def test_replies_equal_each_client_trained_alone(self, encryption):
        # clients 1 and 3 share a training-set size, client 2 trains in its own group
        settings = make_settings(n_clients=3, encryption=encryption)
        keypair = cohort_key(settings)
        sizes = {1: 60, 2: 45, 3: 60}

        def session(cid):
            return ClientSession(settings, cid, client_split(cid, sizes[cid]), keypair)

        endpoints = InThreadCohort([session(cid) for cid in sizes]).endpoints
        if keypair is not None:
            endpoints[1].recv()  # the key offer
        for endpoint in endpoints.values():
            endpoint.send(*encode_message(_round_one(settings)))
        for cid in sizes:
            [expected] = _trained_alone(session(cid), _round_one(settings))
            assert endpoints[cid].recv() == expected

    def test_recv_with_nothing_queued_names_the_client(self):
        endpoint = in_thread(ClientSession(make_settings(), 2, client_split(2)))
        start = time.monotonic()
        with pytest.raises(ChannelClosed, match="client 2 has no reply"):
            endpoint.recv(timeout=20.0)
        assert time.monotonic() - start < 1.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_diverged_client_aborts_alone(self):
        settings = make_settings()
        sessions = [ClientSession(settings, cid, client_split(cid)) for cid in (1, 2)]
        endpoints = InThreadCohort(sessions).endpoints
        endpoints[1].send(*encode_message(_diverging_round_one(settings)))
        endpoints[2].send(*encode_message(_round_one(settings)))
        abort = decode_message(*endpoints[1].recv())
        assert abort.kind == MessageKind.ABORT and sessions[0].done
        assert abort.payload["reason"] == "NonFiniteInput: local training diverged in round 1"
        [expected] = _trained_alone(ClientSession(settings, 2, client_split(2)), _round_one(settings))
        assert endpoints[2].recv() == expected and not sessions[1].done

    def test_sends_after_the_session_ends_are_dropped(self):
        settings = make_settings()
        session = ClientSession(settings, 2, client_split(2))
        endpoint = in_thread(session)
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
        [reply] = server_says(in_thread(session), kind, bad, {})
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
                lambda m: dataclasses.replace(m, payload={"n": "not hex"}),
                WeakKey,
                "^client 1: malformed public key: ",
                id="malformed_offer",
            ),
            pytest.param(
                MessageKind.KEY_OFFER,
                lambda m: dataclasses.replace(
                    m, payload=paillier.public_key_to_payload(paillier.keygen(64, seed=5).public)
                ),
                KeyMismatch,
                "^client 1: offered a 64-bit key, expected 128$",
                id="offer_of_a_smaller_key",
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
                lambda m: HUGE_INT_BODY,
                ProtocolViolation,
                "^client 2: malformed message body: Exceeds the limit",
                id="int_past_the_digit_limit",
            ),
            pytest.param(
                MessageKind.TRAIN_RESULT,
                lambda m: DEEP_BODY,
                ProtocolViolation,
                "^client 2: malformed message body: maximum recursion depth",
                id="nested_too_deep",
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
            # True == 1, so a bool would pass for client 1's frame of round 1
            pytest.param(
                MessageKind.FINAL_MODEL,
                lambda m: dataclasses.replace(m, round=True, sender=True),
                ProtocolViolation,
                "^client 1: message body must carry payload/round/sender$",
                id="bool_round_and_sender",
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
        edited = edit(msg)  # a message, or the raw body of a frame of this kind
        if isinstance(edited, bytes):
            transcript[at] = (cid, encode_frame(kind, edited))
        else:
            transcript[at] = (cid, encode_frame(*encode_message(edited)))
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
        assert session.handle(msg) == [] and session.pending
        replies = [decode_message(*reply) for reply in session.upload()]
        return session, initial, replies

    def test_round_one_trains_without_keys(self):
        settings = make_settings()
        session, initial, replies = self._trained_session(settings)
        assert [m.kind for m in replies] == [MessageKind.TRAIN_RESULT]
        payload = replies[0].payload["gradient"]
        gradient = protocol.decode_gradient_payload(payload, None, 42, settings.quant)
        assert gradient.shape == (42,)
        assert np.any(gradient != 0)
        assert np.array_equal(session.weights.values, initial.values)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_diverged_client_aborts_over_tcp(self):
        settings = make_settings()
        session = ClientSession(settings, 2, client_split(2))
        server_end, client_end = (TcpEndpoint(sock) for sock in socket.socketpair())
        try:
            server_end.send(*encode_message(_diverging_round_one(settings)))
            client_run(session, client_end)
            abort = decode_message(*server_end.recv(timeout=5.0))
        finally:
            server_end.close()
            client_end.close()
        assert session.done and abort.kind == MessageKind.ABORT and abort.sender == 2
        assert abort.payload["reason"] == "NonFiniteInput: local training diverged in round 1"

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
                settings.learning_rate,
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
            settings.learning_rate,
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
                settings.learning_rate,
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
        with pytest.raises(RoundAborted, match="^client 2 aborted: EmptyDataset"):
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
