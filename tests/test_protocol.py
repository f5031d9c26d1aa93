import dataclasses
import json
import math
import pickle
import socket
import struct
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from fedboost import aggregate as agg
from fedboost import nn, paillier, protocol, runner
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
    client_run,
    decode_message,
    derive_seed,
    encode_message,
    server_run,
)
from fedboost.runner import build_splits, run_experiment
from fedboost.transport import MAX_FRAME_BYTES, TcpEndpoint, decode_frame, encode_frame

from test_paillier import _other_spellings

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def f64(*values: float) -> bytes:
    """``values`` as the wire spells a float vector."""
    return protocol.floats_to_bytes(values)


def raw_body(payload, round_no: int, tail: bytes = b"") -> bytes:
    """A body whose header holds ``payload`` as written, numbers included,
    before ``tail``: what a peer could send that ``encode_message`` never writes."""
    return protocol.canonical_json({"payload": payload, "round": round_no}) + b"\n" + tail


def through_the_wire(payload):
    """``payload`` as a peer's arrives: encoded and decoded."""
    return decode_message(*encode_message(Message(MessageKind.TRAIN_RESULT, 1, payload))).payload


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
    endpoint.send(*encode_message(Message(kind, round_no, payload)))
    replies = []
    while True:
        try:
            replies.append(decode_message(*endpoint.recv()))
        except ChannelClosed:
            return replies


class TestMessageCodec:
    def test_roundtrip(self):
        payload = {"train_loss": f64(0.25), "gradient": {"values": f64(1.0, 2.0)}}
        msg = Message(MessageKind.TRAIN_RESULT, round=3, payload=payload)
        kind, body = encode_message(msg)
        assert decode_message(kind, body) == msg

    def test_canonical_bytes(self):
        msg = Message(MessageKind.ABORT, round=1, payload={"reason": "x"})
        _, body = encode_message(msg)
        assert body == b'{"payload":{"reason":"x"},"round":1}\n'

    def test_bytes_travel_in_the_tail_in_header_order(self):
        # sorted keys, then list order; the header holds each one's length
        payload = {"b": [b"\x01", b""], "a": b"\n\n", "c": {"d": b"xyz"}}
        _, body = encode_message(Message(MessageKind.FUSED_GRADIENT, 2, payload))
        assert body == b'{"payload":{"a":2,"b":[1,0],"c":{"d":3}},"round":2}\n\n\n\x01xyz'

    def test_unknown_kind_byte(self):
        with pytest.raises(ProtocolViolation):
            decode_message(200, b'{"payload":{},"round":0}\n')

    def test_tampered_body(self):
        with pytest.raises(ProtocolViolation):
            decode_message(int(MessageKind.ABORT), b"{not json\n")

    def test_missing_fields(self):
        with pytest.raises(ProtocolViolation):
            decode_message(int(MessageKind.ABORT), b'{"payload":{}}\n')

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b'{"payload":{},"round":true}\n', id="bool_round"),
            # the endpoint a frame arrives on names the peer
            pytest.param(b'{"payload":{},"round":1,"sender":2}\n', id="stale_sender"),
        ],
    )
    def test_body_is_a_payload_and_an_integer_round(self, body):
        with pytest.raises(ProtocolViolation, match="must carry payload/round$"):
            decode_message(int(MessageKind.TRAIN_RESULT), body)

    @pytest.mark.parametrize(
        "body, cause",
        [
            pytest.param(b'{"payload":{},"round":1}', "^message body has no header separator$", id="no_separator"),
            pytest.param(
                raw_body({"n": 17}, 0, bytes(16)),
                "^payload lengths run past the 16-byte tail$",
                id="length_past_the_tail",
            ),
            pytest.param(raw_body({"n": 16}, 0, bytes(17)), "^1 tail bytes left over$", id="tail_left_over"),
            pytest.param(raw_body({}, 0, b"\n"), "^1 tail bytes left over$", id="newline_left_over"),
            pytest.param(raw_body({"n": -1}, 0), "^payload length -1 is no byte count$", id="negative_length"),
            pytest.param(raw_body({"n": True}, 0, b"\0"), "^payload length True is no byte count$", id="bool"),
            pytest.param(raw_body({"n": 1.0}, 0, b"\0"), "^payload length 1.0 is no byte count$", id="float"),
        ],
    )
    def test_the_tail_must_be_spent_exactly(self, body, cause):
        with pytest.raises(ProtocolViolation, match=cause):
            decode_message(int(MessageKind.KEY_OFFER), body)


# bodies that get past the JSON parser's own error types
HUGE_INT_BODY = b'{"payload":{"train_loss":' + b"1" * 5000 + b'},"round":1}\n'
DEEP_BODY = b"[" * 100_000 + b"\n"

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)
# what a payload holds once decoded: no numbers, as every length became bytes
PAYLOAD_VALUES = st.recursive(
    st.text() | st.binary(max_size=40),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)
WIRE_VALUES = st.none() | PAYLOAD_VALUES
BODIES = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda v, tail: json.dumps(v).encode() + b"\n" + tail, JSON_VALUES, st.binary(max_size=20)
    ),
    st.builds(
        lambda p, r, tail: json.dumps({"payload": p, "round": r}).encode() + b"\n" + tail,
        JSON_VALUES,
        JSON_VALUES,
        st.binary(max_size=20),
    ),
    # a well-formed body, cut or extended anywhere
    st.builds(
        lambda p, cut, extra: encode_message(Message(MessageKind.TRAIN_RESULT, 1, p))[1][:cut] + extra,
        st.dictionaries(st.text(), PAYLOAD_VALUES),
        st.integers(0, 400),
        st.binary(max_size=3),
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
        assert payload == {"values": struct.pack(">3d", 0.5, -1.25, 3.0)}
        quant = qz.QuantConfig()
        assert np.array_equal(protocol.decode_gradient_payload(payload, None, 3, quant), g)

    def test_encrypted_roundtrip(self, key128):
        cfg = qz.QuantConfig(scale_exponent=8, pieces=10)
        q = qz.quantize(np.array([0.125, -0.5]), cfg)
        eg = agg.encrypt_gradient(key128.public, q)
        payload = protocol.gradient_to_payload(eg)
        # one ciphertext per entry at 128 bits, each as 32 bytes, in one blob
        blob = b"".join(c.value.to_bytes(32, "big") for c in eg.ciphertexts)
        assert payload == {"ciphertexts": blob, "key": key128.public.fingerprint}
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


def _keys(pk: paillier.PublicKey):
    """Wire key fingerprints: this key's, another key's, the right one as
    bytes, the modulus, and other wire values."""
    return st.one_of(
        st.just(pk.fingerprint),
        st.just(paillier.keygen(pk.key_bits, seed=1).public.fingerprint),
        st.just(pk.fingerprint.encode()),
        st.just(format(pk.n, "x")),
        st.just(pk.n.to_bytes(paillier.byte_width(pk.key_bits), "big")),
        WIRE_VALUES,
    )


def _float_vectors(entries: int):
    """Wire float vectors, valid or not: ``entries`` float64s of any bits,
    NaN and infinity included, or another byte count; the right bytes as
    text or one value per entry, and other wire values."""
    any_bits = st.binary(min_size=8 * entries, max_size=8 * entries)
    return st.one_of(
        st.lists(st.floats(), min_size=entries, max_size=entries).map(protocol.floats_to_bytes),
        any_bits,
        st.binary(max_size=8 * entries + 9),
        any_bits.map(lambda raw: raw.decode("latin-1")),
        any_bits.map(lambda raw: [raw[at : at + 8] for at in range(0, len(raw), 8)]),
        WIRE_VALUES,
    )


def _blobs(pk: paillier.PublicKey, count: int):
    """Wire ciphertext blobs, valid or not: ``count`` ciphertexts in range;
    one of them 0, n^2 or 256^width - 1; another count; any bytes; the right
    bytes as text or one value per ciphertext, and other wire values."""
    n2 = pk.n_squared
    width = paillier.byte_width(2 * pk.key_bits)
    in_range = st.integers(1, n2 - 1)
    good = st.lists(in_range, min_size=count, max_size=count)

    def blob(values) -> bytes:
        return b"".join(c.to_bytes(width, "big") for c in values)

    return st.one_of(
        good.map(blob),
        st.builds(
            lambda cs, c, i: blob(cs[:i] + [c] + cs[i + 1 :]),
            good,
            st.sampled_from([0, n2, 256**width - 1]),
            st.integers(0, count - 1),
        ),
        st.lists(in_range, max_size=count + 2).map(blob),
        st.binary(max_size=(count + 1) * width + 1),
        good.map(lambda cs: blob(cs).hex()),
        good.map(lambda cs: [c.to_bytes(width, "big") for c in cs]),
        WIRE_VALUES,
    )


def _gradient_payloads(pk: paillier.PublicKey, entries: int):
    """Wire gradient payloads: good ones, ones with one bad ciphertext,
    wrong counts, and fields missing, mistyped or extra."""
    ciphertexts = _blobs(pk, -(-entries // agg.slots_per_ciphertext(pk.key_bits)))
    values = _float_vectors(entries)
    payloads = st.one_of(
        st.fixed_dictionaries({"ciphertexts": ciphertexts, "key": st.just(pk.fingerprint)}),
        st.fixed_dictionaries({"ciphertexts": ciphertexts, "key": _keys(pk)}),
        st.fixed_dictionaries({"values": values}),
        st.fixed_dictionaries(
            {}, optional={"ciphertexts": ciphertexts, "key": _keys(pk), "values": values}
        ),
    )
    return payloads.map(through_the_wire)


class TestPayloadDecodersFuzz:
    """Any wire gradient payload decodes to a value or is refused as a
    ProtocolViolation or KeyMismatch, never with another exception; and the
    message codec returns any payload it writes, and refuses any body it
    cannot read with a ProtocolViolation."""

    REFUSALS = (ProtocolViolation, KeyMismatch)

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        payload=st.one_of(_gradient_payloads(FUZZ_KEY.public, FUZZ_ENTRIES), WIRE_VALUES),
        encrypted=st.booleans(),
    )
    def test_read_gradient(self, payload, encrypted):
        public_key = FUZZ_KEY.public if encrypted else None
        try:
            g = protocol.read_gradient(payload, public_key, FUZZ_ENTRIES, FUZZ_SETTINGS.quant)
        except self.REFUSALS:
            return
        if encrypted:
            assert isinstance(g, agg.EncryptedGradient) and g.entries == FUZZ_ENTRIES
            # at 128 bits a ciphertext holds one entry
            assert len(g) == FUZZ_ENTRIES
            assert all(0 < c.value < FUZZ_KEY.public.n_squared for c in g.ciphertexts)
        else:
            assert g.shape == (FUZZ_ENTRIES,) and np.all(np.isfinite(g))

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

    @hypothesis_settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(MessageKind),
        round_no=st.integers(-(2**63), 2**63),
        payload=st.dictionaries(st.text(), PAYLOAD_VALUES),
    )
    # a newline in a key, in text and in bytes: only the header's own is raw
    @example(kind=MessageKind.ABORT, round_no=0, payload={"\n": ["\n", b"\n"]})
    def test_encode_then_decode_returns_the_payload(self, kind, round_no, payload):
        msg = Message(kind, round_no, payload)
        raw_kind, body = encode_message(msg)
        assert decode_message(raw_kind, body) == msg
        head, _newline, tail = body.partition(b"\n")
        assert json.loads(head)["round"] == round_no
        assert len(tail) == sum(map(len, bytes_within(payload)))

    @hypothesis_settings(max_examples=500, deadline=None)
    @given(kind=st.sampled_from(MessageKind), body=BODIES)
    @example(kind=MessageKind.TRAIN_RESULT, body=HUGE_INT_BODY)
    @example(kind=MessageKind.TRAIN_RESULT, body=DEEP_BODY)
    # nested deeper than the tail walk can recurse, though the JSON parser reads it
    @example(kind=MessageKind.ABORT, body=b'{"payload":{"a":' + b"[" * 900 + b"]" * 900 + b'},"round":0}\n')
    def test_any_body_decodes_to_a_message_or_a_protocol_violation(self, kind, body):
        try:
            msg = decode_message(int(kind), body)
        except ProtocolViolation:
            return
        assert isinstance(msg, Message) and msg.kind == kind
        assert not any(isinstance(v, (int, float)) for v in _leaves(msg.payload))


def _leaves(value):
    """Every value nested in ``value`` that is no dict or list."""
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in _leaves(v)]
    if isinstance(value, list):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


def bytes_within(value) -> list[bytes]:
    """Every bytes value nested in ``value``."""
    return [leaf for leaf in _leaves(value) if isinstance(leaf, bytes)]


# 8 slots per ciphertext: 42 entries in 6 ciphertexts of 256 bytes
_KEY1024 = paillier.keygen(1024, seed=2024)
BLOB_KEYS = {128: FUZZ_KEY.public, 1024: _KEY1024.public}
# this key's fingerprint half the time; built once, as _keys makes a key of the size
BLOB_KEY_FIELDS = {bits: st.one_of(st.just(pk.fingerprint), _keys(pk)) for bits, pk in BLOB_KEYS.items()}


class TestCiphertextBlobFuzz:
    """An encrypted gradient's ciphertexts travel as one blob of count x
    width bytes, count = ceil(entries / slots) and width = the bytes below
    n^2, both from the reader's config. ``read_gradient`` returns exactly
    that many ciphertexts, each in (0, n^2), or refuses with a
    ProtocolViolation, or a KeyMismatch for another key."""

    REFUSALS = (ProtocolViolation, KeyMismatch)

    @hypothesis_settings(max_examples=300, deadline=None)
    @given(data=st.data(), key_bits=st.sampled_from(sorted(BLOB_KEYS)))
    def test_any_wire_value_decodes_or_is_refused(self, data, key_bits):
        pk = BLOB_KEYS[key_bits]
        count = -(-FUZZ_ENTRIES // agg.slots_per_ciphertext(key_bits))
        value = data.draw(st.one_of(_blobs(pk, count), WIRE_VALUES))
        key = data.draw(BLOB_KEY_FIELDS[key_bits])
        payload = through_the_wire({"ciphertexts": value, "key": key})
        try:
            g = protocol.read_gradient(payload, pk, FUZZ_ENTRIES, FUZZ_SETTINGS.quant)
        except self.REFUSALS:
            return
        assert len(g) == count and g.entries == FUZZ_ENTRIES
        assert all(0 < c.value < pk.n_squared and c.public == pk for c in g.ciphertexts)
        assert protocol.gradient_to_payload(g) == payload

    @pytest.mark.parametrize("key_bits", sorted(BLOB_KEYS))
    @hypothesis_settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_random_ciphertexts_round_trip(self, key_bits, data):
        pk = BLOB_KEYS[key_bits]
        entries = data.draw(st.integers(1, 60))
        count = -(-entries // agg.slots_per_ciphertext(key_bits))
        values = data.draw(st.lists(st.integers(1, pk.n_squared - 1), min_size=count, max_size=count))
        cts = [paillier.Ciphertext(v, pk) for v in values]
        eg = agg.EncryptedGradient(cts, FUZZ_SETTINGS.quant, entries)
        payload = through_the_wire(protocol.gradient_to_payload(eg))
        assert len(payload["ciphertexts"]) == count * paillier.byte_width(2 * key_bits)
        back = protocol.read_gradient(payload, pk, entries, FUZZ_SETTINGS.quant)
        assert [c.value for c in back.ciphertexts] == values and back.config == FUZZ_SETTINGS.quant

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(data=st.data(), key_bits=st.sampled_from(sorted(BLOB_KEYS)))
    def test_every_other_spelling_is_refused(self, data, key_bits):
        pk = BLOB_KEYS[key_bits]
        count = -(-FUZZ_ENTRIES // agg.slots_per_ciphertext(key_bits))
        width = paillier.byte_width(2 * key_bits)
        values = data.draw(st.lists(st.integers(1, pk.n_squared - 1), min_size=count, max_size=count))

        def read(blob):
            payload = {"ciphertexts": blob, "key": pk.fingerprint}
            return protocol.read_gradient(payload, pk, FUZZ_ENTRIES, FUZZ_SETTINGS.quant)

        def blob(values) -> bytes:
            return b"".join(c.to_bytes(width, "big") for c in values)

        raw = blob(values)
        assert [c.value for c in read(raw).ciphertexts] == values
        for bad in _other_spellings(raw, data.draw):
            with pytest.raises(ProtocolViolation, match="^payload field 'ciphertexts' "):
                read(bad)
        # a ciphertext too few or too many
        for other in (count - 1, count + 1):
            with pytest.raises(ProtocolViolation, match=f"has {other} entries, expected {count}$"):
                read(blob((values * 2)[:other]))
        # a ciphertext of 0 or n^2, wherever it stands
        at = data.draw(st.integers(0, count - 1))
        out_of_range = "^malformed encrypted gradient: ciphertext value out of range$"
        for edge in (0, pk.n_squared):
            with pytest.raises(ProtocolViolation, match=out_of_range):
                read(blob(values[:at] + [edge] + values[at + 1 :]))


# every float vector a reader takes, with the entry count its config gives
FLOAT_FIELDS = {"values": FUZZ_ENTRIES, "weights": FUZZ_ENTRIES, "train_loss": 1}
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestFloatCodecFuzz:
    """Every float vector on the wire is the big-endian float64 bytes that
    ``floats_to_bytes`` writes. ``read_floats`` takes the entry count from
    the reader's config, returns that many finite floats bit for bit, and
    refuses anything else with a ProtocolViolation."""

    @hypothesis_settings(max_examples=300, deadline=None)
    @given(data=st.data(), field=st.sampled_from(sorted(FLOAT_FIELDS)))
    def test_any_wire_value_decodes_or_is_refused(self, data, field):
        entries = FLOAT_FIELDS[field]
        value = data.draw(st.one_of(_float_vectors(entries), WIRE_VALUES))
        payload = through_the_wire({field: value})
        try:
            vector = protocol.read_floats(payload, field, entries)
        except ProtocolViolation:
            return
        assert vector.dtype == np.float64 and vector.shape == (entries,)
        assert np.all(np.isfinite(vector))
        assert protocol.floats_to_bytes(vector) == value

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(xs=st.lists(FINITE, max_size=50))
    # signed zeros, the smallest subnormal and normal, and the largest magnitude
    @example(xs=[-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max])
    @example(xs=[-sys.float_info.max])
    def test_finite_vectors_round_trip_bit_for_bit(self, xs):
        raw = protocol.floats_to_bytes(xs)
        assert len(raw) == 8 * len(xs)
        vector = protocol.read_floats(through_the_wire({"weights": raw}), "weights", len(xs))
        assert vector.tobytes() == np.array(xs, dtype=np.float64).tobytes()

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        field=st.sampled_from(sorted(FLOAT_FIELDS)),
        negative=st.booleans(),
        mantissa=st.integers(0, 2**52 - 1),
    )
    def test_nan_and_infinity_bits_are_refused(self, data, field, negative, mantissa):
        entries = FLOAT_FIELDS[field]
        # exponent all ones: infinity for mantissa 0, else a NaN
        bits = negative << 63 | 0x7FF << 52 | mantissa
        finite = data.draw(st.lists(FINITE, min_size=entries, max_size=entries))
        raw = bytearray(np.array(finite, ">f8").tobytes())
        at = 8 * data.draw(st.integers(0, entries - 1))
        raw[at : at + 8] = bits.to_bytes(8, "big")
        with pytest.raises(ProtocolViolation, match=f"^payload field '{field}' has non-finite entries$"):
            protocol.read_floats({field: bytes(raw)}, field, entries)

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(data=st.data(), field=st.sampled_from(sorted(FLOAT_FIELDS)))
    def test_every_other_spelling_is_refused(self, data, field):
        entries = FLOAT_FIELDS[field]
        raw = protocol.floats_to_bytes(data.draw(st.lists(FINITE, min_size=entries, max_size=entries)))
        for bad in _other_spellings(raw, data.draw):
            with pytest.raises(ProtocolViolation, match=f"^payload field '{field}' "):
                protocol.read_floats({field: bad}, field, entries)
        # one entry fewer or more
        for other in (entries - 1, entries + 1):
            with pytest.raises(ProtocolViolation, match=f"has {other} entries, expected {entries}$"):
                protocol.read_floats({field: f64(*[0.5] * other)}, field, entries)


class Recorder:
    """The server's endpoint to one client; keeps every frame it carries, in
    both directions."""

    def __init__(self, inner):
        self.inner = inner
        self.frames: list[tuple[int, bytes]] = []

    @property
    def messages(self) -> list[Message]:
        return [decode_message(kind, body) for kind, body in self.frames]

    def send(self, kind: int, body: bytes) -> None:
        self.frames.append((kind, body))
        self.inner.send(kind, body)

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        kind, body = self.inner.recv(timeout)
        self.frames.append((kind, body))
        return kind, body


def _recorded_run(encryption: str) -> dict[int, Recorder]:
    """A 2-round run of two in-thread clients; the server's endpoints."""
    settings = make_settings(encryption=encryption, rounds=2)
    keypair = cohort_key(settings)
    sessions = [ClientSession(settings, cid, client_split(cid), keypair) for cid in (1, 2)]
    endpoints = {
        cid: Recorder(endpoint) for cid, endpoint in InThreadCohort(sessions).endpoints.items()
    }
    server_run(settings, endpoints)
    return endpoints


def _keys_within(obj) -> set:
    """Every key of every object nested in ``obj``."""
    if isinstance(obj, dict):
        return set(obj).union(*map(_keys_within, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_keys_within, obj))
    return set()


# whole-frame bytes per kind of ``_recorded_run``, the 5-byte frame header included
FRAME_BYTES = {
    "none": dict(
        GLOBAL_GRADIENT=842, TRAIN_RESULT=1656, FUSED_GRADIENT=1564, EVAL_RESULT=228,
        MERGED_GRADIENT=782, FINAL_MODEL=379,
    ),
    "he": dict(
        KEY_OFFER=52, GLOBAL_GRADIENT=2912, TRAIN_RESULT=5796, FUSED_GRADIENT=5704,
        EVAL_RESULT=228, MERGED_GRADIENT=2852, FINAL_MODEL=379,
    ),
    "he_dp": dict(
        KEY_OFFER=52, GLOBAL_GRADIENT=2912, TRAIN_RESULT=5796, FUSED_GRADIENT=11248,
        EVAL_RESULT=228, MERGED_GRADIENT=2852, FINAL_MODEL=379,
    ),
}


class TestWireShape:
    """Every party takes the entry count, the scale, the piece count and the
    key size from its config, so a payload carries only the numbers and, when
    encrypted, the fingerprint that tells the key. An encrypted gradient's
    ciphertexts are one blob of the bytes below n^2 each, and the offered
    modulus the bytes below 2^key_bits: at 128 bits, 42 ciphertexts of 32
    bytes and 16 bytes."""

    @pytest.mark.parametrize("encryption", ["none", "he", "he_dp"])
    def test_a_payload_carries_only_what_the_config_cannot_give(self, encryption):
        keypair = cohort_key(make_settings(encryption=encryption))
        endpoints = _recorded_run(encryption)
        messages = [m for endpoint in endpoints.values() for m in endpoint.messages]
        shape = {"values"} if keypair is None else {"ciphertexts", "key"}
        gradients = Counter()
        for msg in messages:
            if msg.kind == MessageKind.FUSED_GRADIENT:
                payloads = msg.payload["models"]
            else:
                payloads = [msg.payload["gradient"]] if "gradient" in msg.payload else []
            for payload in payloads:
                assert set(payload) == shape, msg.kind.name
                if keypair is None:
                    # 42 float64s
                    assert len(payload["values"]) == 336
                else:
                    assert payload["key"] == keypair.public.fingerprint
                    assert len(payload["key"]) == 12
                    # 42 ciphertexts of 32 bytes
                    assert len(payload["ciphertexts"]) == 1344
            gradients[msg.kind.name] += len(payloads)
        # every other float is float64 bytes: one training loss, a loss per
        # client, the final model's 42 weights
        widths = {"train_loss": 8, "values": 16, "weights": 336}
        for msg in messages:
            for name in widths.keys() & msg.payload.keys():
                assert len(msg.payload[name]) == widths[name], msg.kind.name
        # round 2's broadcast, 2 rounds of uploads and of the models to score
        # per client, and the merged gradient to both clients; a client holds
        # its own upload, so only he_dp's fused models number N per client
        models = 8 if encryption == "he_dp" else 4
        assert gradients == Counter(
            GLOBAL_GRADIENT=2, TRAIN_RESULT=4, FUSED_GRADIENT=models, MERGED_GRADIENT=2
        )
        offers = [m.payload for m in messages if m.kind == MessageKind.KEY_OFFER]
        if keypair is None:
            assert offers == []
        else:
            assert offers == [{"n": keypair.public.n.to_bytes(16, "big")}]
        # and every frame whole, header, separator and tail
        sizes = Counter()
        for endpoint in endpoints.values():
            for kind, body in endpoint.frames:
                sizes[MessageKind(kind).name] += len(encode_frame(kind, body))
        assert sizes == Counter(FRAME_BYTES[encryption])

    @pytest.mark.parametrize("encryption", ["none", "he", "he_dp"])
    def test_a_frame_carries_its_payload_and_round_only(self, encryption):
        """The endpoint names the peer, so no body names a sender; every
        client starts from the initial model its config gives, so round 1's
        broadcast is empty and only the final model carries weights."""
        kinds = Counter()
        for endpoint in _recorded_run(encryption).values():
            # the JSON header, before the first newline
            bodies = [(MessageKind(kind), json.loads(body.partition(b"\n")[0])) for kind, body in endpoint.frames]
            for kind, body in bodies:
                kinds[kind.name] += 1
                assert set(body) == {"payload", "round"}, kind.name
                if kind == MessageKind.FINAL_MODEL:
                    assert set(body["payload"]) == {"weights"}
                else:
                    assert not _keys_within(body) & {"weights", "layout"}, kind.name
            broadcasts = [b["payload"] for k, b in bodies if k == MessageKind.GLOBAL_GRADIENT]
            assert broadcasts[0] == {} and set(broadcasts[1]) == {"gradient"}
        assert (kinds["TRAIN_RESULT"], kinds["FINAL_MODEL"]) == (4, 1)


def _run_and_summarize(settings):
    """The final model and every round's losses, scores and boost weights."""
    result = run_loopback(settings, [client_split(1), client_split(2)])
    rounds = [(r.train_losses, r.validation, r.weights) for r in result.rounds]
    return result.final_weights.values.tolist(), rounds


class TestNoSelfRelay:
    """Under none and he a client holds its own upload, so the server sends it
    its N - 1 peers' uploads only and the client scores its own from what it
    uploaded; under he_dp the fused models are no uploads, and every client
    scores all N. Either way the validation matrix is the one a client that
    scores every candidate from the wire gives."""

    @pytest.mark.parametrize("n_clients", [2, 3])
    @pytest.mark.parametrize("encryption", ["none", "he", "he_dp"])
    def test_validation_matrix_equals_scoring_every_candidate(self, encryption, n_clients):
        settings = make_settings(n_clients, encryption=encryption, key_bits=256, rounds=2)
        keypair = cohort_key(settings)
        splits = [client_split(cid) for cid in range(1, n_clients + 1)]
        sessions = [ClientSession(settings, cid, sp, keypair) for cid, sp in enumerate(splits, 1)]
        endpoints = {
            cid: Recorder(endpoint) for cid, endpoint in InThreadCohort(sessions).endpoints.items()
        }
        result = server_run(settings, endpoints)

        def decoded(payload, pieces):
            quant = qz.QuantConfig(settings.quant.scale_exponent, pieces)
            return protocol.decode_gradient_payload(payload, keypair, settings.layout.size, quant)

        def sent(cid, kind):
            return [m for m in endpoints[cid].messages if m.kind == kind]

        weights = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)
        for r, record in enumerate(result.rounds):
            fused = [sent(cid, MessageKind.FUSED_GRADIENT)[r].payload["models"] for cid in endpoints]
            if encryption == "he_dp":
                assert all(models == fused[0] for models in fused)
                candidates = [decoded(m, 1) for m in fused[0]]
            else:
                uploads = [sent(cid, MessageKind.TRAIN_RESULT)[r].payload["gradient"] for cid in endpoints]
                # client k gets every upload but its own, in id order
                assert fused == [uploads[: k - 1] + uploads[k:] for k in endpoints]
                raw = settings.quant.pieces if encryption == "he" else 1
                candidates = [decoded(u, raw) for u in uploads]
            # entry (i, j): candidate i on client j's validation set
            expected = [
                [nn.evaluate(nn.apply_gradient(weights, g), sp.validation)[0] for sp in splits]
                for g in candidates
            ]
            assert record.validation == expected
            weights = nn.apply_gradient(weights, decoded(result.merged_gradients[r], 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_he_dp_runs_complete_with_finite_losses(self, seed):
        settings = make_settings(encryption="he_dp", key_bits=256, rounds=2, master_seed=seed)
        result = run_loopback(settings, [client_split(seed + 1), client_split(seed + 2)])
        losses = [x for r in result.rounds for x in r.train_losses + sum(r.validation, [])]
        assert len(result.rounds) == 2 and np.all(np.isfinite(losses))
        assert np.all(np.isfinite(result.final_weights.values))


class TestStaleWireFields:
    """Fields that older payloads carried, and that the config now gives, are
    never read: a peer still sending them, whatever their value, runs exactly
    as if it did not. A number travels as bytes, so a stale one is spelled so."""

    @pytest.mark.parametrize(
        "encryption, field, value",
        [
            ("he", "format", "plain"),
            pytest.param("he", "entries", (41).to_bytes(1, "big"), id="he-entries-41"),
            pytest.param("he", "pieces", (10**400).to_bytes(167, "big"), id="he-pieces-10**400"),
            pytest.param("he", "scale_exponent", (13).to_bytes(1, "big"), id="he-scale_exponent-13"),
            # the modulus every encrypted gradient carried before the fingerprint
            ("he", "n", "0x1"),
            ("none", "format", "encrypted"),
            pytest.param("none", "entries", (41).to_bytes(1, "big"), id="none-entries-41"),
        ],
    )
    def test_gradient_payload(self, monkeypatch, encryption, field, value):
        settings = make_settings(encryption=encryption, rounds=2)
        clean = _run_and_summarize(settings)
        original = protocol.gradient_to_payload
        monkeypatch.setattr(protocol, "gradient_to_payload", lambda g: {**original(g), field: value})
        assert _run_and_summarize(settings) == clean

    @pytest.mark.parametrize(
        "encryption, field, value",
        [
            # the initial model, which round 1's broadcast carried
            pytest.param("none", "layout", [[b"\x02", b"\x03"], [b"\x03", b"\x02"]], id="none-layout"),
            pytest.param("none", "weights", f64(*[1e308] * 42), id="none-weights"),
            ("he", "weights", "x"),
        ],
    )
    def test_round_one_broadcast(self, monkeypatch, encryption, field, value):
        settings = make_settings(encryption=encryption, rounds=2)
        clean = _run_and_summarize(settings)
        original = protocol.encode_message

        def stale(msg):
            if (msg.kind, msg.round) == (MessageKind.GLOBAL_GRADIENT, 1):
                msg = dataclasses.replace(msg, payload={**msg.payload, field: value})
            return original(msg)

        monkeypatch.setattr(protocol, "encode_message", stale)
        assert _run_and_summarize(settings) == clean

    @pytest.mark.parametrize("key_bits", [f64(128.9), "128", b"\x40"], ids=["float", "text", "byte"])
    def test_key_offer(self, monkeypatch, key_bits):
        settings = make_settings(encryption="he", rounds=1)
        clean = _run_and_summarize(settings)
        original = paillier.public_key_to_payload
        monkeypatch.setattr(
            paillier, "public_key_to_payload", lambda pk: {**original(pk), "key_bits": key_bits}
        )
        assert _run_and_summarize(settings) == clean


class TestKeyDistribution:
    def test_server_run_never_holds_secret_material(self):
        """Nothing reachable from server_run's locals when it returns is the
        key pair or one of its primes; the endpoints are left out, because
        their in-thread clients hold the key pair by design."""
        settings = make_settings(encryption="he", rounds=1)
        keypair = cohort_key(settings)
        returned = []

        def profile(frame, event, arg):
            if event == "return" and frame.f_code is server_run.__code__:
                returned.append(dict(frame.f_locals))

        sys.setprofile(profile)
        try:
            run_loopback(settings, [client_split(1), client_split(2)])
        finally:
            sys.setprofile(None)
        [server_locals] = returned
        assert server_locals["public_key"] == keypair.public
        del server_locals["endpoints"]
        _assert_no_secret(server_locals, keypair, path="server_run")

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
        assert reply.kind == MessageKind.ABORT
        assert reply.payload["reason"] == "ProtocolViolation: client cannot handle KEY_DELIVER"


def _round_one(settings) -> Message:
    """Round 1's broadcast: every client starts from the initial model."""
    return Message(MessageKind.GLOBAL_GRADIENT, round=1, payload={})


def _packed_payload(kp, settings) -> dict:
    """A valid packed gradient payload under ``kp``."""
    q = qz.quantize(np.full(settings.layout.size, 0.01), settings.quant)
    return protocol.gradient_to_payload(agg.encrypt_gradient(kp, q))


_KEY256 = paillier.keygen(256, seed=8)  # 2 slots: 42 entries in 21 ciphertexts
_PACKED = _packed_payload(_KEY256, make_settings(encryption="he", key_bits=256))
_PACKED_VALUES = [
    c.value for c in protocol.read_gradient(_PACKED, _KEY256.public, 42, qz.QuantConfig()).ciphertexts
]


def _blob(values: list[int]) -> bytes:
    """``values`` as a 256-bit key's ciphertexts travel: 64 bytes each, in one blob."""
    return b"".join(c.to_bytes(64, "big") for c in values)


class TestMalformedPayloads:
    """A client that cannot decode a payload aborts with the cause instead of
    dying silently and leaving the server to wait out its timeout."""

    @pytest.mark.parametrize(
        "kind, round_no, payload, cause",
        [
            (MessageKind.GLOBAL_GRADIENT, 2, {}, "'gradient' is missing"),
            (MessageKind.GLOBAL_GRADIENT, 2, {"gradient": {"values": f64(*[0.0] * 42)}}, "'ciphertexts' is missing"),
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                {"gradient": {**_PACKED, "ciphertexts": _blob(_PACKED_VALUES[:-1])}},
                "payload field 'ciphertexts' has 20 entries, expected 21",
            ),
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                {"gradient": {**_PACKED, "ciphertexts": _blob([0] + _PACKED_VALUES[1:])}},
                "malformed encrypted gradient: ciphertext value out of range",
            ),
            (MessageKind.FUSED_GRADIENT, 1, {}, "'models' is missing"),
            # client 2 of 2 holds its own upload, so it scores its one peer's
            (MessageKind.FUSED_GRADIENT, 1, {"models": [_PACKED] * 2}, "2 models to cross-validate, expected 1"),
            (MessageKind.FUSED_GRADIENT, 1, {"models": [{"key": _PACKED["key"]}]}, "'ciphertexts' is missing"),
            (MessageKind.FUSED_GRADIENT, 1, {"models": [{**_PACKED, "key": _PACKED["key"].encode()}]}, "'key' is missing"),
            (MessageKind.MERGED_GRADIENT, 1, {"gradient": []}, "'gradient' is missing or mistyped"),
            # one value per ciphertext, as ciphertexts travelled before the blob
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                {"gradient": {**_PACKED, "ciphertexts": [_blob([c]) for c in _PACKED_VALUES]}},
                "payload field 'ciphertexts' is missing or mistyped",
            ),
            # the blob as text
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                {"gradient": {**_PACKED, "ciphertexts": _PACKED["ciphertexts"].hex()}},
                "payload field 'ciphertexts' is missing or mistyped",
            ),
        ],
    )
    def test_client_aborts_promptly_naming_the_cause(self, kind, round_no, payload, cause):
        settings = make_settings(encryption="he", key_bits=256, rounds=1, timeout_s=20.0)
        session = ClientSession(settings, 2, client_split(2), _KEY256)
        session.handle(_round_one(settings))
        session.upload()
        [reply] = server_says(in_thread(session), kind, round_no, payload)
        assert session.done
        assert reply.kind == MessageKind.ABORT
        assert reply.payload["reason"].startswith("ProtocolViolation: ")
        assert cause in reply.payload["reason"]

    @pytest.mark.parametrize(
        "values, cause",
        [
            pytest.param([10**400] + [0.0] * 41, "payload lengths run past the 0-byte tail", id="first"),
            pytest.param([0.0] * 41 + [-(10**400)], "payload length 0.0 is no byte count", id="last"),
        ],
    )
    def test_client_aborts_on_numbers_beyond_float_range(self, values, cause):
        # json reads an integer literal of any length; a number in a payload
        # is the length of a tail slice, so no JSON number is a float vector
        settings = make_settings(rounds=2)
        session = ClientSession(settings, 2, client_split(2))
        session.handle(_round_one(settings))
        endpoint = in_thread(session)
        endpoint.send(int(MessageKind.GLOBAL_GRADIENT), raw_body({"gradient": {"values": values}}, 2))
        reply = decode_message(*endpoint.recv())
        with pytest.raises(ChannelClosed):
            endpoint.recv()
        assert session.done
        assert reply.kind == MessageKind.ABORT
        assert reply.payload["reason"] == f"ProtocolViolation: {cause}"

    @pytest.mark.parametrize("field", ["train_loss", "values", "weights"])
    def test_server_rejects_numbers_beyond_float_range(self, field):
        huge = 10**400
        kind = {"train_loss": "TRAIN_RESULT", "values": "EVAL_RESULT", "weights": "FINAL_MODEL"}[field]
        # the final model's weights are read only after a fedavg round
        aggregator = "fedavg" if field == "weights" else "fedboosting"
        settings = make_settings(aggregator=aggregator, rounds=1)
        gradient = protocol.gradient_to_payload(np.zeros(42))
        endpoints = {}
        for cid in (1, 2):
            if field == "train_loss":
                # the header as the codec writes it, with the loss's length replaced
                header = {"gradient": {"values": len(gradient["values"])}, "train_loss": huge}
                frames = [encode_frame(int(MessageKind.TRAIN_RESULT), raw_body(header, 1, gradient["values"]))]
            else:
                upload = Message(MessageKind.TRAIN_RESULT, 1, {"gradient": gradient, "train_loss": f64(0.5)})
                frames = [encode_frame(*encode_message(upload))]
            if field == "values":
                frames.append(encode_frame(int(MessageKind.EVAL_RESULT), raw_body({"values": [huge, 0.5]}, 1)))
            if field == "weights" and cid == 1:
                weights = raw_body({"weights": [huge] + [0.0] * 41}, 1)
                frames.append(encode_frame(int(MessageKind.FINAL_MODEL), weights))
            endpoints[cid] = ReplayEndpoint(frames)
        cause = rf"^client 1: payload lengths run past the \d+-byte tail \({kind}, round 1\)$"
        with pytest.raises(ProtocolViolation, match=cause):
            server_run(settings, endpoints)

    @pytest.mark.parametrize(
        "gradient, cause",
        [
            ({"values": f64(*[0.0] * 41)}, "client 1: payload field 'values' has 41 entries"),
            ({"values": f64(*[float("nan")] * 42)}, "client 1: payload field 'values' has non-finite"),
            ({}, "client 1: payload field 'values' is missing"),
            # a packed upload into a plaintext cohort
            (_PACKED, r"client 1: payload field 'values' is missing or mistyped \(TRAIN_RESULT, round 1\)$"),
            (None, "client 1: payload field 'gradient' is missing"),
        ],
    )
    def test_server_rejects_malformed_plain_upload(self, gradient, cause):
        settings = make_settings(rounds=1)
        payload = {"gradient": gradient, "train_loss": f64(0.5)}
        upload = encode_frame(*encode_message(Message(MessageKind.TRAIN_RESULT, 1, payload)))
        endpoints = {1: ReplayEndpoint([upload]), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation, match=cause):
            server_run(settings, endpoints)

    @pytest.mark.parametrize(
        "tamper, cause",
        [
            # twice the 21 ciphertexts
            (
                lambda p: {**p, "ciphertexts": p["ciphertexts"] * 2},
                "'ciphertexts' has 42 entries, expected 21",
            ),
            # a plaintext upload into an encrypted cohort
            (
                lambda p: protocol.gradient_to_payload(np.zeros(42)),
                r"payload field 'ciphertexts' is missing or mistyped \(TRAIN_RESULT, round 1\)$",
            ),
        ],
    )
    def test_server_rejects_packed_upload_with_wrong_counts(self, tamper, cause):
        settings = make_settings(encryption="he", key_bits=256, rounds=1)
        source = key_source(settings, client_split(1))
        frames = [encode_frame(*encode_message(m)) for m in source.startup()]
        bad = tamper(_packed_payload(source.keypair, settings))
        upload = Message(MessageKind.TRAIN_RESULT, 1, {"gradient": bad, "train_loss": f64(0.5)})
        frames.append(encode_frame(*encode_message(upload)))
        endpoints = {1: ReplayEndpoint(frames), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation, match=f"client 1: .*{cause}"):
            server_run(settings, endpoints)

    @pytest.mark.parametrize("aggregator", ["fedboosting", "fedavg"])
    def test_server_rejects_non_finite_train_loss(self, aggregator):
        settings = make_settings(aggregator=aggregator, rounds=1)
        gradient = protocol.gradient_to_payload(np.zeros(42))
        # float64 bits spell NaN, which the codec carries and the reader refuses
        upload = Message(MessageKind.TRAIN_RESULT, 1, {"gradient": gradient, "train_loss": f64(math.nan)})
        endpoints = {1: ReplayEndpoint([encode_frame(*encode_message(upload))]), 2: ReplayEndpoint([])}
        cause = "client 1: payload field 'train_loss' has non-finite entries"
        with pytest.raises(ProtocolViolation, match=cause):
            server_run(settings, endpoints)

    def test_server_rejects_negative_validation_losses(self):
        settings = make_settings(rounds=1)
        gradient = protocol.gradient_to_payload(np.zeros(42))
        endpoints = {}
        for cid in (1, 2):
            upload = Message(MessageKind.TRAIN_RESULT, 1, {"gradient": gradient, "train_loss": f64(0.5)})
            scores = Message(MessageKind.EVAL_RESULT, 1, {"values": f64(-1.0, 0.5)})
            endpoints[cid] = ReplayEndpoint([encode_frame(*encode_message(m)) for m in (upload, scores)])
        with pytest.raises(ProtocolViolation, match="client 1: payload field 'values' has negative"):
            server_run(settings, endpoints)


def _trained_alone(session: ClientSession, msg: Message) -> list[tuple[int, bytes]]:
    """What ``session`` answers ``msg`` with on TCP, where it trains alone."""
    assert session.respond(*encode_message(msg)) == []
    return session.upload()


def _diverging_round_two(settings) -> Message:
    """Round two's broadcast of a plain gradient so large that training diverges."""
    gradient = protocol.gradient_to_payload(np.full(settings.layout.size, 1e308))
    return Message(MessageKind.GLOBAL_GRADIENT, round=2, payload={"gradient": gradient})


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
        for endpoint in endpoints.values():
            endpoint.send(*encode_message(_round_one(settings)))
            endpoint.recv()
        round_two = Message(MessageKind.GLOBAL_GRADIENT, 2, {"gradient": protocol.gradient_to_payload(np.zeros(42))})
        endpoints[1].send(*encode_message(_diverging_round_two(settings)))
        endpoints[2].send(*encode_message(round_two))
        abort = decode_message(*endpoints[1].recv())
        assert abort.kind == MessageKind.ABORT and sessions[0].done
        assert abort.payload["reason"] == "NonFiniteInput: local training diverged in round 2"
        alone = ClientSession(settings, 2, client_split(2))
        _trained_alone(alone, _round_one(settings))
        [expected] = _trained_alone(alone, round_two)
        assert endpoints[2].recv() == expected and not sessions[1].done

    def test_sends_after_the_session_ends_are_dropped(self):
        settings = make_settings()
        session = ClientSession(settings, 2, client_split(2))
        endpoint = in_thread(session)
        assert server_says(endpoint, MessageKind.ABORT, 0, {"reason": "test"}) == []
        assert session.done
        round_one = _round_one(settings).payload
        assert server_says(endpoint, MessageKind.GLOBAL_GRADIENT, 1, round_one) == []
        assert session.round == 0 and not session.pending

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
            # round(0.55 * 2) == round(0.45 * 2): the fusion would erase the own model's dominance
            (dict(encryption="he_dp", p_hat=0.55, quant=qz.QuantConfig(32, 2)), "p_hat"),
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
        assert reply.kind == MessageKind.ABORT
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
            abort = Message(MessageKind.ABORT, round_no, {"reason": reason})
            assert last == abort

    @pytest.mark.parametrize(
        "kind, edit, error, cause",
        [
            pytest.param(
                MessageKind.KEY_OFFER,
                lambda m: dataclasses.replace(m, kind=MessageKind.KEY_DELIVER),
                ProtocolViolation,
                "^expected KEY_OFFER from client 1 in round 0, got KEY_DELIVER$",
                id="key_delivery_for_the_offer",
            ),
            pytest.param(
                MessageKind.KEY_OFFER,
                lambda m: dataclasses.replace(m, payload={"n": m.payload["n"].hex()}),
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
                r"^client 1: offered a 64-bit key, expected 128 \(KEY_OFFER, round 0\)$",
                id="offer_of_a_smaller_key",
            ),
            pytest.param(
                MessageKind.TRAIN_RESULT,
                lambda m: dataclasses.replace(m, kind=MessageKind.KEY_DELIVER),
                ProtocolViolation,
                "^expected TRAIN_RESULT from client 2 in round 1, got KEY_DELIVER$",
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
                lambda m: protocol.canonical_json({"payload": {}, "round": 1, "sender": 2}) + b"\n",
                ProtocolViolation,
                r"^client 2: message body must carry payload/round \(TRAIN_RESULT, round 1\)$",
                id="stale_sender",
            ),
            pytest.param(
                MessageKind.TRAIN_RESULT,
                # text where the loss's bytes belong
                lambda m: dataclasses.replace(m, payload={**m.payload, "train_loss": "0.25"}),
                ProtocolViolation,
                r"^client 2: payload field 'train_loss' is missing or mistyped \(TRAIN_RESULT, round 1\)$",
                id="mistyped_train_loss",
            ),
            pytest.param(
                MessageKind.EVAL_RESULT,
                lambda m: dataclasses.replace(m, payload={"values": f64(-1.0, 0.5)}),
                ProtocolViolation,
                r"^client 2: payload field 'values' has negative losses \(EVAL_RESULT, round 1\)$",
                id="negative_validation_loss",
            ),
            pytest.param(
                MessageKind.FINAL_MODEL,
                lambda m: dataclasses.replace(m, payload={"weights": f64(0.0)}),
                ProtocolViolation,
                r"^client 1: payload field 'weights' has 1 entries, expected 42 \(FINAL_MODEL, round 1\)$",
                id="final_model_of_another_size",
            ),
            # True == 1, so a bool would pass for client 1's frame of round 1
            pytest.param(
                MessageKind.FINAL_MODEL,
                lambda m: dataclasses.replace(m, round=True),
                ProtocolViolation,
                r"^client 1: message body must carry payload/round \(FINAL_MODEL, round 1\)$",
                id="bool_round",
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
        assert transcript[at][0] == 2
        msg = decode_message(*decode_frame(transcript[at][1]))
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
            upload = {"gradient": _packed_payload(key, settings), "train_loss": f64(0.5)}
            frames[cid] = [Message(MessageKind.TRAIN_RESULT, 1, upload)]
        frames[1].insert(0, key_source(settings, client_split(1)).startup()[0])
        endpoints = {
            cid: ReplayEndpoint([encode_frame(*encode_message(m)) for m in messages])
            for cid, messages in frames.items()
        }
        cause = r"^client 2: gradient is encrypted under a different key \(TRAIN_RESULT, round 1\)$"
        with pytest.raises(KeyMismatch, match=cause) as err:
            server_run(settings, endpoints)
        self._assert_every_client_aborted(endpoints, err)

    def test_failed_send_names_the_client_kind_and_round(self):
        # client 2's socket peer is gone before the first broadcast
        settings = make_settings(rounds=1)
        session = ClientSession(settings, 1, client_split(1))
        endpoints = InThreadCohort([session]).endpoints
        server_end, client_end = socket.socketpair()
        client_end.close()
        endpoints[2] = TcpEndpoint(server_end)
        cause = "^sending GLOBAL_GRADIENT to client 2 in round 1: send failed: "
        try:
            with pytest.raises(RoundAborted, match=cause):
                server_run(settings, endpoints)
        finally:
            endpoints[2].close()
        # client 1 took the broadcast and then the ABORT
        assert session.done

    @pytest.mark.parametrize(
        "encryption, length, cause",
        [
            ("he", 0, r"^client 1: declared length omits the kind byte \(KEY_OFFER, round 0\)$"),
            (
                "none",
                MAX_FRAME_BYTES + 1,
                rf"^client 1: declared length {MAX_FRAME_BYTES + 1} exceeds limit "
                rf"{MAX_FRAME_BYTES} \(TRAIN_RESULT, round 1\)$",
            ),
        ],
        ids=["zero_length_offer", "oversize_upload"],
    )
    def test_bad_tcp_header_names_the_client_kind_and_round(self, encryption, length, cause):
        settings = make_settings(rounds=1, encryption=encryption, timeout_s=5.0)
        pairs = {cid: socket.socketpair() for cid in (1, 2)}
        endpoints = {cid: TcpEndpoint(server) for cid, (server, _client) in pairs.items()}
        peers = {cid: TcpEndpoint(client) for cid, (_server, client) in pairs.items()}
        try:
            pairs[1][1].sendall(struct.pack(">I", length))
            with pytest.raises(ProtocolViolation, match=cause):
                server_run(settings, endpoints)
            # each client took whatever the run sent it, then the ABORT
            for cid in (1, 2):
                endpoints[cid].close()
                frames = []
                with pytest.raises(ChannelClosed):
                    while True:
                        frames.append(decode_message(*peers[cid].recv(timeout=5.0)))
                assert frames[-1].kind == MessageKind.ABORT
        finally:
            for endpoint in [*endpoints.values(), *peers.values()]:
                endpoint.close()


def _assert_no_secret(obj, keypair: paillier.KeyPair, path: str, seen=None):
    """Walk ``obj`` through containers, arrays and instance attributes: no
    object reached is a KeyPair or an integer equal to ``p`` or ``q``."""
    seen = seen if seen is not None else {}
    if id(obj) in seen or isinstance(obj, type):
        return
    seen[id(obj)] = obj  # kept alive, so that no id is reused during the walk
    assert not isinstance(obj, paillier.KeyPair), f"secret key material at {path}"
    if isinstance(obj, int):
        assert obj not in (keypair.p, keypair.q), f"secret prime at {path}"
        return
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        children = [(f"[{k!r}]", v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple, set, frozenset, range)):
        children = [(f"[{i}]", v) for i, v in enumerate(obj)]
    elif hasattr(obj, "__dict__"):
        children = [(f".{k}", v) for k, v in vars(obj).items()]
    else:
        return
    for at, child in children:
        _assert_no_secret(child, keypair, path + at, seen)


class TestClientSession:
    def _trained_session(self, settings, rounds_payloads=None, client_id=2):
        session = ClientSession(settings, client_id, client_split(client_id))
        initial = nn.init_params(derive_seed(settings.master_seed, "init"), settings.layout)
        assert session.handle(_round_one(settings)) == [] and session.pending
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
        _trained_alone(session, _round_one(settings))
        server_end, client_end = (TcpEndpoint(sock) for sock in socket.socketpair())
        try:
            server_end.send(*encode_message(_diverging_round_two(settings)))
            client_run(session, client_end)
            abort = decode_message(*server_end.recv(timeout=5.0))
        finally:
            server_end.close()
            client_end.close()
        assert session.done and abort.kind == MessageKind.ABORT
        assert abort.payload["reason"] == "NonFiniteInput: local training diverged in round 2"

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
        """Client 2 of 2 gets its one peer's model and scores its own upload
        too: a loss per client, in id order."""
        settings = make_settings()
        session, _initial, [upload] = self._trained_session(settings)
        fused = Message(
            MessageKind.FUSED_GRADIENT,
            round=1,
            payload={"models": [protocol.gradient_to_payload(np.zeros(42))]},
        )
        replies = session.handle(fused)
        assert len(replies) == 1 and replies[0].kind == MessageKind.EVAL_RESULT
        own = protocol.decode_gradient_payload(upload.payload["gradient"], None, 42, settings.quant)
        own_loss, _acc = nn.evaluate(nn.apply_gradient(session.weights, own), session.split.validation)
        expected = f64(session.evaluate_fused(fused.payload["models"][0]), own_loss)
        assert replies[0].payload == {"values": expected}

    def test_cross_validation_before_the_upload_is_refused(self):
        settings = make_settings()
        session = ClientSession(settings, 2, client_split(2))
        session.handle(_round_one(settings))
        models = [protocol.gradient_to_payload(np.zeros(42))]
        [reply] = server_says(in_thread(session), MessageKind.FUSED_GRADIENT, 1, {"models": models})
        assert session.done and reply.kind == MessageKind.ABORT
        assert reply.payload["reason"] == "ProtocolViolation: cross-validation before the upload of round 1"

    def test_final_zero_gradient_keeps_weights(self):
        settings = make_settings(rounds=1)
        session, _initial, _ = self._trained_session(settings, client_id=1)
        merged = Message(
            MessageKind.MERGED_GRADIENT,
            round=1,
            payload={"gradient": protocol.gradient_to_payload(np.zeros(42))},
        )
        [final] = session.handle(merged)
        assert final.kind == MessageKind.FINAL_MODEL
        assert final.payload["weights"] == f64(*session.weights.values)

    @pytest.mark.parametrize("client_id", [1, 2])
    def test_merged_gradient_ends_the_session(self, client_id):
        """Client 1 answers the merged gradient with the final model, its
        weights plus that gradient; any other client answers nothing."""
        settings = make_settings(rounds=1)
        session, _initial, _ = self._trained_session(settings, client_id=client_id)
        g = np.linspace(-0.01, 0.01, 42)
        merged = Message(
            MessageKind.MERGED_GRADIENT,
            round=1,
            payload={"gradient": protocol.gradient_to_payload(g)},
        )
        replies = session.handle(merged)
        assert session.done
        if client_id != protocol.DESIGNATED_DECRYPTOR:
            assert replies == []
            return
        [final] = replies
        assert (final.kind, final.round) == (MessageKind.FINAL_MODEL, 1)
        assert final.payload["weights"] == f64(*(session.weights.values + g))

    def test_only_client_one_decrypts_the_final_gradient(self, monkeypatch):
        settings = make_settings(encryption="he_dp", rounds=1, key_bits=256)
        decrypts, handling = Counter(), []
        handle, decrypt = ClientSession.handle, paillier.decrypt

        def tracked(session, msg):
            handling.append((session.client_id, msg.kind))
            try:
                return handle(session, msg)
            finally:
                handling.pop()

        def counted(kp, c):
            decrypts[handling[-1] if handling else None] += 1
            return decrypt(kp, c)

        monkeypatch.setattr(ClientSession, "handle", tracked)
        monkeypatch.setattr(paillier, "decrypt", counted)
        run_loopback(settings, [client_split(1), client_split(2)])
        slots = agg.slots_per_ciphertext(settings.key_bits)
        ciphertexts = -(-settings.layout.size // slots)
        assert (slots, ciphertexts) == (2, 21)
        assert decrypts[2, MessageKind.MERGED_GRADIENT] == 0
        assert decrypts[1, MessageKind.MERGED_GRADIENT] == ciphertexts

    def test_a_loopback_cohort_decrypts_each_ciphertext_once(self, monkeypatch, tmp_path):
        """In-thread clients and the runner's scoring share the key pair: the
        clients decrypt each fused model once between them, and the scoring
        reads the merged gradient that client 1 decrypted. The artifacts are
        those of a TCP run, whose clients and runner share nothing."""
        decrypts, scoring = Counter(), []
        decrypt, score = paillier.decrypt, runner._protocol_records

        def counted(kp, c):
            decrypts["scoring" if scoring else "protocol"] += 1
            return decrypt(kp, c)

        def scored(*args):
            scoring.append(True)
            try:
                return score(*args)
            finally:
                scoring.pop()

        monkeypatch.setattr(paillier, "decrypt", counted)
        monkeypatch.setattr(runner, "_protocol_records", scored)
        artifacts = {}
        for transport in ("loopback", "tcp"):
            out = tmp_path / transport
            cfg = ExperimentConfig(
                clients=two_client_noniid(200, master_seed=8),
                rounds=1,
                master_seed=8,
                aggregator="fedboosting",
                encryption="he_dp",
                key_bits=256,
                transport=transport,
                out_dir=str(out),
            )
            decrypts.clear()
            run_experiment(cfg)
            records = json.loads((out / "records.json").read_text())
            for rec in records:
                del rec["durations"]
            artifacts[transport] = (
                (out / "metrics.csv").read_bytes(),
                (out / "model.json").read_bytes(),
                records,
            )
            if transport == "loopback":
                # 2 fused models and client 1's final gradient, 21 ciphertexts each
                assert decrypts == {"protocol": (cfg.n_clients + 1) * 21}
            else:
                # TCP clients decrypt in their own processes, with their own copies of the key
                assert decrypts == {"scoring": 21}
        assert artifacts["loopback"] == artifacts["tcp"]

    def test_he_cross_validation_decrypts_only_the_peer_upload(self, monkeypatch):
        """Under he the server relays the peers' raw uploads only; a client
        scores its own from the integers it encrypted, on TCP too, where no
        peer shares its key pair, and whatever its memo holds."""
        settings = make_settings(encryption="he", rounds=1)
        keypair = cohort_key(settings)
        # each session holds its own copy of the key pair, as in a TCP client process
        sessions = [
            ClientSession(settings, cid, client_split(cid), pickle.loads(pickle.dumps(keypair)))
            for cid in (1, 2)
        ]
        uploads = []
        for session in sessions:
            session.handle(_round_one(settings))
            [reply] = [decode_message(*r) for r in session.upload()]
            uploads.append(reply.payload["gradient"])
        values = [
            [c.value for c in protocol.read_gradient(u, keypair.public, 42, settings.quant).ciphertexts]
            for u in uploads
        ]
        decrypted = []
        decrypt = paillier.decrypt
        monkeypatch.setattr(paillier, "decrypt", lambda kp, c: decrypted.append(c.value) or decrypt(kp, c))
        fused = Message(MessageKind.FUSED_GRADIENT, 1, {"models": uploads[1:]})
        [reply] = sessions[0].handle(fused)
        assert decrypted == values[1]
        # the same losses with an empty memo, which decrypts the peer's upload again
        sessions[0].keypair.plaintexts.clear()
        decrypted.clear()
        assert sessions[0].handle(fused) == [reply]
        assert decrypted == values[1]
        # and the own loss is the one the relayed upload would give
        own = sessions[0].evaluate_fused(uploads[0])
        assert protocol.read_floats(reply.payload, "values", 2)[0] == own

    def test_final_before_last_round_rejected(self):
        settings = make_settings(rounds=3)
        session, _initial, _ = self._trained_session(settings)
        merged = Message(
            MessageKind.MERGED_GRADIENT,
            round=1,
            payload={"gradient": protocol.gradient_to_payload(np.zeros(42))},
        )
        with pytest.raises(ProtocolViolation):
            session.handle(merged)

    def test_cross_validation_before_the_first_broadcast_is_refused(self):
        session = ClientSession(make_settings(), 2, client_split(2))
        models = [protocol.gradient_to_payload(np.zeros(42))] * 2
        [reply] = server_says(in_thread(session), MessageKind.FUSED_GRADIENT, 0, {"models": models})
        assert session.done and reply.kind == MessageKind.ABORT
        assert reply.payload["reason"] == "ProtocolViolation: cross-validation before any training round"

    @pytest.mark.parametrize("client_id", [1, 2])
    def test_every_encrypted_client_needs_the_key_pair(self, client_id):
        with pytest.raises(ValueError, match="every client of an encrypted cohort needs"):
            ClientSession(make_settings(encryption="he"), client_id, client_split(client_id))

    def test_final_wrong_key_rejected(self, key64):
        settings = make_settings(rounds=1, encryption="he")
        session = key_source(settings, client_split(1))
        session.handle(_round_one(settings))
        foreign = agg.encrypt_gradient(
            key64.public, qz.quantize(np.zeros(42), settings.quant)
        )
        merged = Message(
            MessageKind.MERGED_GRADIENT,
            round=1,
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

    @pytest.mark.parametrize(
        "extra, error, cause",
        [
            pytest.param(
                Message(MessageKind.ABORT, 2, {"reason": "KeyMismatch: x"}),
                RoundAborted,
                r"^client 2 aborted: KeyMismatch: x \(end of run, round 2\)$",
                id="abort",
            ),
            pytest.param(
                Message(MessageKind.EVAL_RESULT, 2, {"values": f64(0.5, 0.5)}),
                ProtocolViolation,
                "^expected end of run from client 2 in round 2, got EVAL_RESULT$",
                id="another_frame",
            ),
        ],
    )
    def test_the_other_clients_end_by_closing_their_channel(self, extra, error, cause):
        """After client 1's final model the server reads client 2's end: a
        closed channel, as the replay of a clean run gives, and no frame."""
        settings = make_settings(rounds=2)
        transcript = []
        run_loopback(settings, [client_split(1), client_split(2)], transcript)
        frames = {c: [f for i, f in transcript if i == c] for c in (1, 2)}
        frames[2].append(encode_frame(*encode_message(extra)))
        endpoints = {c: ReplayEndpoint(f) for c, f in frames.items()}
        with pytest.raises(error, match=cause):
            server_run(settings, endpoints)
        for endpoint in endpoints.values():
            assert decode_message(*decode_frame(endpoint.sent[-1])).kind == MessageKind.ABORT

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
        cause = r"^client 2 aborted: EmptyDataset: .* \(TRAIN_RESULT, round 1\)$"
        with pytest.raises(RoundAborted, match=cause):
            run_loopback(settings, [client_split(1), crippled])

    def test_tampered_frame_is_protocol_violation(self):
        settings = make_settings(rounds=1, timeout_s=5.0)
        state_frames = [encode_frame(int(MessageKind.TRAIN_RESULT), b"{broken")]
        endpoints = {1: ReplayEndpoint(state_frames), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation):
            server_run(settings, endpoints)
