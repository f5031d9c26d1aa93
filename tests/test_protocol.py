import copy
import dataclasses
import json
import math
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
from fedboost.transport import TcpEndpoint, encode_frame

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def f64(*values: float) -> bytes:
    """``values`` as the wire spells a float vector."""
    return protocol.floats_to_bytes(values)


def filled(widths, field):
    """A payload of the shape ``widths`` gives, ``field(width)`` in each field."""
    if isinstance(widths, dict):
        return {name: filled(w, field) for name, w in widths.items()}
    if isinstance(widths, list):
        return [filled(w, field) for w in widths]
    return field(widths)


def zeros(kind: MessageKind, round_no: int, settings) -> dict:
    """A payload of ``kind`` under ``settings`` whose every field is zero bytes."""
    return filled(protocol.field_widths(kind, round_no, settings), bytes)


def raw_body(round_no: int, *fields: bytes) -> bytes:
    """``fields`` back to back after the round, however many: what a peer
    could send that ``encode_message`` never writes."""
    return round_no.to_bytes(4, "big") + b"".join(fields)


def body_size(kind: MessageKind, round_no: int, settings) -> int:
    """The bytes of a ``kind`` body of ``round_no`` under ``settings``."""
    return len(encode_message(Message(kind, round_no, zeros(kind, round_no, settings)), settings)[1])


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
    """Feeds a prerecorded inbound sequence of (kind, body) pairs; records
    the pairs that get sent."""

    def __init__(self, frames: list[tuple[int, bytes]]):
        self._frames = list(frames)
        self.sent: list[tuple[int, bytes]] = []

    def send(self, kind: int, body: bytes) -> None:
        self.sent.append((kind, body))

    def recv(self, timeout: float) -> tuple[int, bytes]:
        if not self._frames:
            raise ChannelClosed("replay exhausted")
        return self._frames.pop(0)

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


def server_says(endpoint, settings, kind, round_no, payload) -> list[Message]:
    """Send one server message to ``endpoint``, a raw body when ``payload`` is
    bytes; every reply it queued."""
    if isinstance(payload, bytes):
        endpoint.send(int(kind), payload)
    else:
        endpoint.send(*encode_message(Message(kind, round_no, payload), settings))
    replies = []
    while True:
        try:
            replies.append(decode_message(*endpoint.recv(settings.timeout_s), settings))
        except ChannelClosed:
            return replies


PLAIN = make_settings()
ENCRYPTED = make_settings(encryption="he")
HE_DP = make_settings(encryption="he_dp")
# the 42-entry model: 336 bytes plain, and at 128 bits a 9-byte fingerprint and 42 ciphertexts of 32 bytes
PLAIN_GRADIENT, ENCRYPTED_GRADIENT = 336, 9 + 42 * 32
# kinds that have a layout, and the retired ones, which have none
LAID_OUT = [kind for kind in MessageKind if kind.name not in ("KEY_DELIVER", "FINAL_MODEL_REQUEST")]
RETIRED = [MessageKind.KEY_DELIVER, MessageKind.FINAL_MODEL_REQUEST]


class TestMessageCodec:
    """A body is the round in 4 big-endian bytes, then each field of the
    kind's layout at the width the config gives; no body describes itself."""

    def test_roundtrip(self):
        payload = {"train_loss": f64(0.25), "gradient": {"values": f64(*range(42))}}
        msg = Message(MessageKind.TRAIN_RESULT, round=3, payload=payload)
        kind, body = encode_message(msg, PLAIN)
        assert decode_message(kind, body, PLAIN) == msg

    def test_the_round_then_the_fields_in_layout_order(self):
        payload = {"train_loss": f64(0.25), "gradient": {"values": f64(*range(42))}}
        _, body = encode_message(Message(MessageKind.TRAIN_RESULT, 3, payload), PLAIN)
        assert body == b"\0\0\0\x03" + f64(*range(42)) + f64(0.25)
        _, body = encode_message(Message(MessageKind.ABORT, 1, {"reason": "x"}), PLAIN)
        assert body == b"\0\0\0\x01x"
        # a fingerprint, then the blob
        gradient = {"ciphertexts": b"\x01" * 42 * 32, "key": b"\x02" * 9}
        _, body = encode_message(Message(MessageKind.MERGED_GRADIENT, 2, {"gradient": gradient}), ENCRYPTED)
        assert body == b"\0\0\0\x02" + b"\x02" * 9 + b"\x01" * 42 * 32

    @pytest.mark.parametrize(
        "settings, sizes",
        [
            pytest.param(
                PLAIN,
                dict(
                    KEY_OFFER=16, GLOBAL_GRADIENT=PLAIN_GRADIENT, TRAIN_RESULT=PLAIN_GRADIENT + 8,
                    FUSED_GRADIENT=PLAIN_GRADIENT, EVAL_RESULT=16, MERGED_GRADIENT=PLAIN_GRADIENT,
                    FINAL_MODEL=336,
                ),
                id="none",
            ),
            pytest.param(
                ENCRYPTED,
                dict(
                    KEY_OFFER=16, GLOBAL_GRADIENT=ENCRYPTED_GRADIENT, TRAIN_RESULT=ENCRYPTED_GRADIENT + 8,
                    FUSED_GRADIENT=ENCRYPTED_GRADIENT, EVAL_RESULT=16, MERGED_GRADIENT=ENCRYPTED_GRADIENT,
                    FINAL_MODEL=336,
                ),
                id="he",
            ),
            # every fused model goes to every client
            pytest.param(HE_DP, dict(FUSED_GRADIENT=2 * ENCRYPTED_GRADIENT), id="he_dp"),
            pytest.param(
                make_settings(3, encryption="he", key_bits=256),
                dict(KEY_OFFER=32, FUSED_GRADIENT=2 * (9 + 21 * 64), EVAL_RESULT=24),
                id="he-3_clients-256",
            ),
        ],
    )
    def test_each_kind_has_the_size_its_config_gives(self, settings, sizes):
        for name, size in sizes.items():
            assert body_size(MessageKind[name], 2, settings) == 4 + size, name
        # round 1's broadcast is its round alone
        assert body_size(MessageKind.GLOBAL_GRADIENT, 1, settings) == 4

    @pytest.mark.parametrize("kind", LAID_OUT[:-1], ids=lambda kind: kind.name)
    @pytest.mark.parametrize("settings", [PLAIN, ENCRYPTED, HE_DP], ids=["none", "he", "he_dp"])
    @pytest.mark.parametrize("change", [-1, 1, "empty"])
    def test_a_body_of_another_length_names_both_counts(self, settings, kind, change):
        size = body_size(kind, 2, settings)
        body = encode_message(Message(kind, 2, zeros(kind, 2, settings)), settings)[1]
        body = b"" if change == "empty" else (body + b"\0")[: size + change]
        if change == "empty" and kind == MessageKind.GLOBAL_GRADIENT:
            size = 4  # the round of no bytes is 0, whose broadcast is its round alone, as round 1's is
        cause = f"^{kind.name} body has {len(body)} bytes, expected {size}$"
        with pytest.raises(ProtocolViolation, match=cause):
            decode_message(int(kind), body, settings)

    def test_a_payload_field_outside_the_layout_never_reaches_the_wire(self):
        """A field that older payloads carried, and that the config now
        gives, cannot be sent: the body holds only what the layout names."""
        payload = {"train_loss": f64(0.25), "gradient": {"values": f64(*range(42))}}
        stale = {**payload, "layout": b"\x02\x08", "gradient": {**payload["gradient"], "entries": b"\x2a"}}
        clean = encode_message(Message(MessageKind.TRAIN_RESULT, 1, payload), PLAIN)
        assert encode_message(Message(MessageKind.TRAIN_RESULT, 1, stale), PLAIN) == clean

    def test_unknown_kind_byte(self):
        with pytest.raises(ProtocolViolation, match="^unknown message kind byte 200$"):
            decode_message(200, b"\0\0\0\0", PLAIN)

    @pytest.mark.parametrize("kind", RETIRED, ids=lambda kind: kind.name)
    def test_retired_kinds_are_refused(self, kind):
        with pytest.raises(ProtocolViolation, match=f"^{kind.name} is retired$"):
            decode_message(int(kind), b"\0\0\0\0", PLAIN)


class TestAbortReason:
    """An ABORT is its round, then a UTF-8 reason of at most MAX_REASON_BYTES."""

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(reason=st.text(max_size=1200), round_no=st.integers(0, 2**32 - 1))
    @example(reason="é" * 600, round_no=1)  # 1,200 bytes, cut inside a character
    @example(reason="x" * 1023 + "€", round_no=1)
    def test_a_reason_is_cut_to_its_bound_on_a_character_boundary(self, reason, round_no):
        kind, body = encode_message(Message(MessageKind.ABORT, round_no, {"reason": reason}), PLAIN)
        sent = decode_message(kind, body, PLAIN)
        assert sent.round == round_no
        assert len(body) <= 4 + protocol.MAX_REASON_BYTES
        assert reason.startswith(sent.payload["reason"])
        # nothing is cut that fits, and no more than one character that does not
        cut = len(reason.encode()) - len(sent.payload["reason"].encode())
        assert cut == 0 if len(reason.encode()) <= protocol.MAX_REASON_BYTES else 0 < cut

    def test_a_long_reason_still_names_the_client_and_the_round(self, monkeypatch):
        handle = ClientSession.handle

        def refuse(session, msg):
            if session.client_id == 2 and msg.kind == MessageKind.FUSED_GRADIENT:
                raise ProtocolViolation("é" * 2000)
            return handle(session, msg)

        monkeypatch.setattr(ClientSession, "handle", refuse)
        with pytest.raises(RoundAborted) as err:
            run_loopback(make_settings(rounds=1), [client_split(1), client_split(2)])
        message = str(err.value)
        assert message.startswith("client 2 aborted: ProtocolViolation: éé")
        assert message.endswith("é (EVAL_RESULT, round 1)")
        # 19 bytes of class name, then as many whole 2-byte characters as fit
        assert message.count("é") == (protocol.MAX_REASON_BYTES - 19) // 2

    @pytest.mark.parametrize(
        "reason, cause",
        [
            (b"x" * 1025, r"ABORT body has 1029 bytes, expected 1028"),
            (b"\xff", "ABORT reason is no UTF-8: 'utf-8' codec can't decode byte 0xff"),
            ("é".encode()[:1], "ABORT reason is no UTF-8: 'utf-8' codec can't decode byte 0xc3"),
        ],
        ids=["over_the_bound", "no_utf8", "cut_character"],
    )
    def test_a_peer_reason_over_the_bound_or_not_utf8_names_the_client(self, reason, cause):
        settings = make_settings(rounds=1)
        abort = (int(MessageKind.ABORT), b"\0\0\0\x01" + reason)
        endpoints = {1: ReplayEndpoint([abort]), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation, match=rf"^client 1: {cause}.*\(TRAIN_RESULT, round 1\)$"):
            server_run(settings, endpoints)


def _frames(settings):
    """Frames of any kind byte: any bytes, and a well-formed body of a kind
    with a layout, cut or extended anywhere, or with bytes overwritten."""

    def well_formed(kind, round_no, data):
        payload = zeros(kind, round_no, settings)
        if kind == MessageKind.ABORT:
            payload = {"reason": data.draw(st.text(max_size=20))}
        body = encode_message(Message(kind, round_no, payload), settings)[1]
        at = data.draw(st.integers(0, len(body)))
        edit = data.draw(st.sampled_from(["cut", "extend", "overwrite"]))
        extra = data.draw(st.binary(min_size=1, max_size=3))
        if edit == "cut":
            return body[:at]
        if edit == "extend":
            return body[:at] + extra + body[at:]
        return body[:at] + extra + body[at + len(extra) :]

    return st.one_of(
        st.tuples(st.integers(0, 255), st.binary(max_size=64)),
        st.builds(
            lambda kind, round_no, data: (int(kind), well_formed(kind, round_no, data)),
            st.sampled_from(LAID_OUT),
            st.integers(0, 3),
            st.data(),
        ),
    )


class TestDecodeAnyBytes:
    """Any kind byte and any body decode to a Message or raise a
    ProtocolViolation; a body refused for its length names both counts."""

    @pytest.mark.parametrize("settings", [PLAIN, ENCRYPTED, HE_DP], ids=["none", "he", "he_dp"])
    @hypothesis_settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_message_or_a_protocol_violation(self, settings, data):
        kind, body = data.draw(_frames(settings))
        try:
            msg = decode_message(kind, body, settings)
        except ProtocolViolation as exc:
            names = {k.value: k.name for k in MessageKind}
            assert str(exc).startswith(f"{names[kind]} " if kind in names else "unknown message kind")
            return
        assert isinstance(msg, Message) and msg.kind == kind
        assert encode_message(msg, settings) == (kind, body)


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
FUZZ_PLAIN = make_settings(n_hidden=1)
FUZZ_KEY = cohort_key(FUZZ_SETTINGS)
FUZZ_ENTRIES = FUZZ_SETTINGS.layout.size
# 8 slots per ciphertext: 7 entries in 1 ciphertext of 256 bytes
_KEY1024 = paillier.keygen(1024, seed=2024)
BLOB_KEYS = {128: FUZZ_KEY.public, 1024: _KEY1024.public}
BLOB_SETTINGS = {128: FUZZ_SETTINGS, 1024: make_settings(encryption="he", n_hidden=1, key_bits=1024)}
OTHER_FINGERPRINTS = {bits: paillier.keygen(bits, seed=1).public.fingerprint for bits in BLOB_KEYS}


def through_the_wire(kind: MessageKind, payload: dict, settings) -> dict:
    """``payload`` as a peer's arrives: encoded and decoded under ``settings``."""
    return decode_message(*encode_message(Message(kind, 2, payload), settings), settings).payload


def _fingerprints(pk: paillier.PublicKey):
    """Wire fingerprints: this key's, another key's of its size, and any 9 bytes."""
    return st.one_of(
        st.just(pk.fingerprint), st.just(OTHER_FINGERPRINTS[pk.key_bits]), st.binary(min_size=9, max_size=9)
    )


def _float_vectors(entries: int):
    """Wire float vectors: ``entries`` float64s of any bits, NaN and infinity included."""
    return st.one_of(
        st.lists(st.floats(), min_size=entries, max_size=entries).map(protocol.floats_to_bytes),
        st.binary(min_size=8 * entries, max_size=8 * entries),
    )


def _blobs(pk: paillier.PublicKey, count: int):
    """Wire ciphertext blobs: ``count`` ciphertexts in range; one of them 0,
    n^2 or 256^width - 1; and any bytes of their size."""
    n2 = pk.n_squared
    width = paillier.byte_width(2 * pk.key_bits)
    good = st.lists(st.integers(1, n2 - 1), min_size=count, max_size=count)

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
        st.binary(min_size=count * width, max_size=count * width),
    )


def _uploads(encrypted: bool):
    """A TRAIN_RESULT payload of FUZZ_SETTINGS or FUZZ_PLAIN as it arrives:
    any gradient its layout admits, good or not."""
    if encrypted:
        count = -(-FUZZ_ENTRIES // agg.slots_per_ciphertext(128))
        gradient = st.fixed_dictionaries(
            {"key": _fingerprints(FUZZ_KEY.public), "ciphertexts": _blobs(FUZZ_KEY.public, count)}
        )
    else:
        gradient = st.fixed_dictionaries({"values": _float_vectors(FUZZ_ENTRIES)})
    settings = FUZZ_SETTINGS if encrypted else FUZZ_PLAIN
    def upload(g):
        return through_the_wire(MessageKind.TRAIN_RESULT, {"gradient": g, "train_loss": f64(0.5)}, settings)

    return gradient.map(upload)


class TestPayloadDecodersFuzz:
    """Any gradient a body of the right length holds decodes to a value or
    is refused as a ProtocolViolation or KeyMismatch, never with another
    exception; and the message codec returns any payload it writes."""

    REFUSALS = (ProtocolViolation, KeyMismatch)

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(data=st.data(), encrypted=st.booleans())
    def test_read_gradient(self, data, encrypted):
        payload = data.draw(_uploads(encrypted))["gradient"]
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
    @given(data=st.data(), encrypted=st.booleans())
    def test_decode_gradient_payload(self, data, encrypted):
        payload = data.draw(_uploads(encrypted))["gradient"]
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
        kind=st.sampled_from(LAID_OUT[:-1]),
        round_no=st.integers(0, 2**32 - 1),
        settings=st.sampled_from([PLAIN, ENCRYPTED, HE_DP]),
        data=st.data(),
    )
    def test_encode_then_decode_returns_the_payload(self, kind, round_no, settings, data):
        widths = protocol.field_widths(kind, round_no, settings)
        msg = Message(kind, round_no, filled(widths, lambda w: data.draw(st.binary(min_size=w, max_size=w))))
        raw_kind, body = encode_message(msg, settings)
        assert decode_message(raw_kind, body, settings) == msg
        assert body[:4] == round_no.to_bytes(4, "big")
        assert len(body) == 4 + sum(map(len, bytes_within(msg.payload)))


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
        gradient = {"key": data.draw(_fingerprints(pk)), "ciphertexts": data.draw(_blobs(pk, count))}
        settings = BLOB_SETTINGS[key_bits]
        payload = through_the_wire(MessageKind.MERGED_GRADIENT, {"gradient": gradient}, settings)
        try:
            g = protocol.read_gradient(payload["gradient"], pk, FUZZ_ENTRIES, FUZZ_SETTINGS.quant)
        except self.REFUSALS:
            return
        assert len(g) == count and g.entries == FUZZ_ENTRIES
        assert all(0 < c.value < pk.n_squared and c.public == pk for c in g.ciphertexts)
        assert protocol.gradient_to_payload(g) == payload["gradient"] == gradient

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
        payload = protocol.gradient_to_payload(eg)
        assert len(payload["ciphertexts"]) == count * paillier.byte_width(2 * key_bits)
        back = protocol.read_gradient(payload, pk, entries, FUZZ_SETTINGS.quant)
        assert [c.value for c in back.ciphertexts] == values and back.config == FUZZ_SETTINGS.quant

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(data=st.data(), key_bits=st.sampled_from(sorted(BLOB_KEYS)))
    def test_a_ciphertext_out_of_range_is_refused(self, data, key_bits):
        pk = BLOB_KEYS[key_bits]
        count = -(-FUZZ_ENTRIES // agg.slots_per_ciphertext(key_bits))
        width = paillier.byte_width(2 * key_bits)
        values = data.draw(st.lists(st.integers(1, pk.n_squared - 1), min_size=count, max_size=count))

        def read(values):
            blob = b"".join(c.to_bytes(width, "big") for c in values)
            payload = {"key": pk.fingerprint, "ciphertexts": blob}
            return protocol.read_gradient(payload, pk, FUZZ_ENTRIES, FUZZ_SETTINGS.quant)

        assert [c.value for c in read(values).ciphertexts] == values
        # a ciphertext of 0 or n^2, wherever it stands
        at = data.draw(st.integers(0, count - 1))
        out_of_range = "^malformed encrypted gradient: ciphertext value out of range$"
        for edge in (0, pk.n_squared):
            with pytest.raises(ProtocolViolation, match=out_of_range):
                read(values[:at] + [edge] + values[at + 1 :])


# every float vector a reader takes: the kind that carries it, and its entry count under FUZZ_PLAIN
FLOAT_FIELDS = {
    "train_loss": (MessageKind.TRAIN_RESULT, 1),
    "values": (MessageKind.EVAL_RESULT, 2),
    "weights": (MessageKind.FINAL_MODEL, FUZZ_ENTRIES),
}
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestFloatCodecFuzz:
    """Every float vector on the wire is the big-endian float64 bytes that
    ``floats_to_bytes`` writes, as many as the reader's config gives.
    ``read_floats`` returns them as finite floats bit for bit, and refuses
    NaN and infinity with a ProtocolViolation."""

    @hypothesis_settings(max_examples=300, deadline=None)
    @given(data=st.data(), field=st.sampled_from(sorted(FLOAT_FIELDS)))
    def test_any_wire_value_decodes_or_is_refused(self, data, field):
        kind, entries = FLOAT_FIELDS[field]
        value = data.draw(_float_vectors(entries))
        payload = through_the_wire(kind, {**zeros(kind, 2, FUZZ_PLAIN), field: value}, FUZZ_PLAIN)
        try:
            vector = protocol.read_floats(payload, field)
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
        vector = protocol.read_floats({"weights": raw}, "weights")
        assert vector.tobytes() == np.array(xs, dtype=np.float64).tobytes()

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        field=st.sampled_from(sorted(FLOAT_FIELDS)),
        negative=st.booleans(),
        mantissa=st.integers(0, 2**52 - 1),
    )
    def test_nan_and_infinity_bits_are_refused(self, data, field, negative, mantissa):
        _kind, entries = FLOAT_FIELDS[field]
        # exponent all ones: infinity for mantissa 0, else a NaN
        bits = negative << 63 | 0x7FF << 52 | mantissa
        finite = data.draw(st.lists(FINITE, min_size=entries, max_size=entries))
        raw = bytearray(np.array(finite, ">f8").tobytes())
        at = 8 * data.draw(st.integers(0, entries - 1))
        raw[at : at + 8] = bits.to_bytes(8, "big")
        with pytest.raises(ProtocolViolation, match=f"^payload field '{field}' has non-finite entries$"):
            protocol.read_floats({field: bytes(raw)}, field)


class Recorder:
    """The server's endpoint to one client; keeps every frame it carries, in
    both directions."""

    def __init__(self, inner, settings):
        self.inner = inner
        self.settings = settings
        self.frames: list[tuple[int, bytes]] = []

    @property
    def messages(self) -> list[Message]:
        return [decode_message(kind, body, self.settings) for kind, body in self.frames]

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
        cid: Recorder(endpoint, settings) for cid, endpoint in InThreadCohort(sessions).endpoints.items()
    }
    server_run(settings, endpoints)
    return endpoints


# whole-frame bytes per kind of ``_recorded_run``: each frame is a 5-byte frame
# header, a 4-byte round and its fields; a gradient is 336 bytes plain, and 9 + 1,344
# encrypted. Per kind: round 1's empty broadcast and round 2's to each client, 4
# uploads, 4 frames of models to score, 4 rows of 2 losses, the merged gradient to
# each client, and one final model
FRAME_BYTES = {
    "none": dict(
        GLOBAL_GRADIENT=2 * (9 + 345), TRAIN_RESULT=4 * 353, FUSED_GRADIENT=4 * 345,
        EVAL_RESULT=4 * 25, MERGED_GRADIENT=2 * 345, FINAL_MODEL=345,
    ),
    "he": dict(
        KEY_OFFER=25, GLOBAL_GRADIENT=2 * (9 + 1362), TRAIN_RESULT=4 * 1370, FUSED_GRADIENT=4 * 1362,
        EVAL_RESULT=4 * 25, MERGED_GRADIENT=2 * 1362, FINAL_MODEL=345,
    ),
    # both fused models to each client
    "he_dp": dict(
        KEY_OFFER=25, GLOBAL_GRADIENT=2 * (9 + 1362), TRAIN_RESULT=4 * 1370, FUSED_GRADIENT=4 * 2715,
        EVAL_RESULT=4 * 25, MERGED_GRADIENT=2 * 1362, FINAL_MODEL=345,
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
                    assert len(payload["key"]) == 9
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
        # and every frame whole, frame header, round and fields
        sizes = Counter()
        for endpoint in endpoints.values():
            for kind, body in endpoint.frames:
                sizes[MessageKind(kind).name] += len(encode_frame(kind, body))
        assert sizes == Counter(FRAME_BYTES[encryption])

    @pytest.mark.parametrize("encryption", ["none", "he", "he_dp"])
    def test_a_frame_carries_its_payload_and_round_only(self, encryption):
        """The endpoint names the peer, so no body names a sender; every
        client starts from the initial model its config gives, so round 1's
        broadcast is its round alone and only the final model carries weights."""
        kinds = Counter()
        for endpoint in _recorded_run(encryption).values():
            for (_kind, body), msg in zip(endpoint.frames, endpoint.messages):
                kinds[msg.kind.name] += 1
                # the round, then the payload's fields and nothing else
                assert body[:4] == msg.round.to_bytes(4, "big")
                assert len(body) == 4 + sum(map(len, bytes_within(msg.payload))), msg.kind.name
            broadcasts = [m.payload for m in endpoint.messages if m.kind == MessageKind.GLOBAL_GRADIENT]
            assert broadcasts[0] == {} and set(broadcasts[1]) == {"gradient"}
        assert (kinds["TRAIN_RESULT"], kinds["FINAL_MODEL"]) == (4, 1)


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
            cid: Recorder(endpoint, settings) for cid, endpoint in InThreadCohort(sessions).endpoints.items()
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
        *before, reply = server_says(endpoint, settings, MessageKind.KEY_DELIVER, 0, b"\0\0\0\0{}")
        # client 1 of an encrypted cohort queued its key offer at startup
        offers = [MessageKind.KEY_OFFER] if settings.encrypted and client_id == 1 else []
        assert [m.kind for m in before] == offers
        assert session.done
        assert reply.kind == MessageKind.ABORT
        assert reply.payload["reason"] == "ProtocolViolation: KEY_DELIVER is retired"


def _round_one(settings) -> Message:
    """Round 1's broadcast: every client starts from the initial model."""
    return Message(MessageKind.GLOBAL_GRADIENT, round=1, payload={})


def server_frame(session: ClientSession, kind: MessageKind, round_no: int) -> Message:
    """A well-formed ``kind`` frame of ``round_no`` for ``session``: every
    gradient in it zero, under the cohort key when encrypted."""
    settings = session.settings
    zero = np.zeros(settings.layout.size)
    if settings.encrypted:
        zero = agg.encrypt_gradient(session.keypair, qz.quantize(zero, settings.quant))
    zero = protocol.gradient_to_payload(zero)
    widths = protocol.field_widths(kind, round_no, settings)
    if kind == MessageKind.FUSED_GRADIENT:
        return Message(kind, round_no, {"models": [zero] * len(widths["models"])})
    return Message(kind, round_no, {name: zero for name in widths})


def until_it_awaits(session: ClientSession, awaited) -> ClientSession:
    """``session``, driven in the order of a clean run, uploading and taking
    the frames it awaits, until ``session.awaits == awaited``: a (kind, round),
    or None for a session that owes its upload."""
    while session.awaits != awaited:
        assert not session.done, f"the session ended before it awaited {awaited}"
        if session.awaits is None:
            session.upload()
        else:
            session.handle(server_frame(session, *session.awaits))
    return session


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
            # round 1's empty broadcast for round 2's: 21 ciphertexts of 64 bytes and a fingerprint short
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                raw_body(2),
                "ProtocolViolation: GLOBAL_GRADIENT body has 4 bytes, expected 1357",
            ),
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                raw_body(2, f64(*[0.0] * 42)),
                "ProtocolViolation: GLOBAL_GRADIENT body has 340 bytes, expected 1357",
            ),
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                {"gradient": {**_PACKED, "ciphertexts": _blob(_PACKED_VALUES[:-1])}},
                "ProtocolViolation: GLOBAL_GRADIENT body has 1293 bytes, expected 1357",
            ),
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                {"gradient": {**_PACKED, "ciphertexts": _blob([0] + _PACKED_VALUES[1:])}},
                "ProtocolViolation: malformed encrypted gradient: ciphertext value out of range",
            ),
            (
                MessageKind.GLOBAL_GRADIENT,
                2,
                {"gradient": {**_PACKED, "key": bytes(9)}},
                "KeyMismatch: gradient is encrypted under a different key",
            ),
            (
                MessageKind.FUSED_GRADIENT,
                1,
                raw_body(1),
                "ProtocolViolation: FUSED_GRADIENT body has 4 bytes, expected 1357",
            ),
            # client 2 of 2 holds its own upload, so it scores its one peer's
            (
                MessageKind.FUSED_GRADIENT,
                1,
                raw_body(1, *[_PACKED["key"], _PACKED["ciphertexts"]] * 2),
                "ProtocolViolation: FUSED_GRADIENT body has 2710 bytes, expected 1357",
            ),
            (
                MessageKind.MERGED_GRADIENT,
                1,
                raw_body(1, _PACKED["key"], _PACKED["ciphertexts"], b"\0"),
                "ProtocolViolation: MERGED_GRADIENT body has 1358 bytes, expected 1357",
            ),
        ],
    )
    def test_client_aborts_promptly_naming_the_cause(self, kind, round_no, payload, cause):
        settings = make_settings(encryption="he", key_bits=256, rounds=round_no, timeout_s=20.0)
        session = ClientSession(settings, 2, client_split(2), _KEY256)
        until_it_awaits(session, (kind, round_no))
        [reply] = server_says(in_thread(session), settings, kind, round_no, payload)
        assert session.done
        assert reply.kind == MessageKind.ABORT
        assert reply.payload["reason"] == cause

    @pytest.mark.parametrize(
        "values",
        [[math.inf] + [0.0] * 41, [0.0] * 41 + [-math.nan]],
        ids=["first_infinite", "last_nan"],
    )
    def test_client_aborts_on_non_finite_gradient_bits(self, values):
        settings = make_settings(rounds=2)
        session = ClientSession(settings, 2, client_split(2))
        until_it_awaits(session, (MessageKind.GLOBAL_GRADIENT, 2))
        endpoint = in_thread(session)
        broadcast = Message(MessageKind.GLOBAL_GRADIENT, 2, {"gradient": {"values": f64(*values)}})
        endpoint.send(*encode_message(broadcast, settings))
        reply = decode_message(*endpoint.recv(settings.timeout_s), settings)
        with pytest.raises(ChannelClosed):
            endpoint.recv(settings.timeout_s)
        assert session.done
        assert reply.kind == MessageKind.ABORT
        assert reply.payload["reason"] == "ProtocolViolation: payload field 'values' has non-finite entries"

    @pytest.mark.parametrize("field", ["train_loss", "values", "weights"])
    def test_server_rejects_a_float_vector_one_entry_short(self, field):
        kind = {"train_loss": "TRAIN_RESULT", "values": "EVAL_RESULT", "weights": "FINAL_MODEL"}[field]
        # the final model's weights are read only after a fedavg round
        aggregator = "fedavg" if field == "weights" else "fedboosting"
        settings = make_settings(aggregator=aggregator, rounds=1)
        gradient = protocol.gradient_to_payload(np.zeros(42))
        short = {"train_loss": b"", "values": f64(0.5), "weights": f64(*[0.0] * 41)}[field]
        endpoints = {}
        for cid in (1, 2):
            loss = short if field == "train_loss" else f64(0.5)
            messages = [Message(MessageKind.TRAIN_RESULT, 1, {"gradient": gradient, "train_loss": loss})]
            if field == "values":
                messages.append(Message(MessageKind.EVAL_RESULT, 1, {"values": short}))
            if field == "weights" and cid == 1:
                messages.append(Message(MessageKind.FINAL_MODEL, 1, {"weights": short}))
            endpoints[cid] = ReplayEndpoint([encode_message(m, settings) for m in messages])
        size = body_size(MessageKind[kind], 1, settings)
        cause = rf"^client 1: {kind} body has {size - 8} bytes, expected {size} \({kind}, round 1\)$"
        with pytest.raises(ProtocolViolation, match=cause):
            server_run(settings, endpoints)

    @pytest.mark.parametrize(
        "gradient, cause",
        [
            ({"values": f64(*[0.0] * 41)}, "client 1: TRAIN_RESULT body has 340 bytes, expected 348"),
            ({"values": f64(*[float("nan")] * 42)}, "client 1: payload field 'values' has non-finite"),
            # a packed upload into a plaintext cohort
            (_PACKED, r"client 1: TRAIN_RESULT body has 1365 bytes, expected 348 \(TRAIN_RESULT, round 1\)$"),
        ],
    )
    def test_server_rejects_malformed_plain_upload(self, gradient, cause):
        settings = make_settings(rounds=1)
        upload = (int(MessageKind.TRAIN_RESULT), raw_body(1, *gradient.values(), f64(0.5)))
        endpoints = {1: ReplayEndpoint([upload]), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation, match=cause):
            server_run(settings, endpoints)

    @pytest.mark.parametrize(
        "tamper, cause",
        [
            # twice the 21 ciphertexts
            (
                lambda p: {**p, "ciphertexts": p["ciphertexts"] * 2},
                "TRAIN_RESULT body has 2709 bytes, expected 1365",
            ),
            # a plaintext upload into an encrypted cohort
            (
                lambda p: protocol.gradient_to_payload(np.zeros(42)),
                r"TRAIN_RESULT body has 348 bytes, expected 1365 \(TRAIN_RESULT, round 1\)$",
            ),
        ],
    )
    def test_server_rejects_packed_upload_with_wrong_counts(self, tamper, cause):
        settings = make_settings(encryption="he", key_bits=256, rounds=1)
        source = key_source(settings, client_split(1))
        frames = source.startup()
        bad = tamper(_packed_payload(source.keypair, settings))
        frames.append((int(MessageKind.TRAIN_RESULT), raw_body(1, *bad.values(), f64(0.5))))
        endpoints = {1: ReplayEndpoint(frames), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation, match=f"client 1: .*{cause}"):
            server_run(settings, endpoints)

    @pytest.mark.parametrize("aggregator", ["fedboosting", "fedavg"])
    def test_server_rejects_non_finite_train_loss(self, aggregator):
        settings = make_settings(aggregator=aggregator, rounds=1)
        gradient = protocol.gradient_to_payload(np.zeros(42))
        # float64 bits spell NaN, which the codec carries and the reader refuses
        upload = Message(MessageKind.TRAIN_RESULT, 1, {"gradient": gradient, "train_loss": f64(math.nan)})
        frame = encode_message(upload, settings)
        endpoints = {1: ReplayEndpoint([frame]), 2: ReplayEndpoint([])}
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
            frames = [encode_message(m, settings) for m in (upload, scores)]
            endpoints[cid] = ReplayEndpoint(frames)
        with pytest.raises(ProtocolViolation, match="client 1: payload field 'values' has negative"):
            server_run(settings, endpoints)


def _trained_alone(session: ClientSession, msg: Message) -> list[tuple[int, bytes]]:
    """What ``session`` answers ``msg`` with on TCP, where it trains alone."""
    assert session.respond(*encode_message(msg, session.settings)) == []
    return session.upload()


def _diverging_round_two(settings) -> Message:
    """Round two's broadcast of a plain gradient so large that training diverges."""
    gradient = protocol.gradient_to_payload(np.full(settings.layout.size, 1e308))
    return Message(MessageKind.GLOBAL_GRADIENT, round=2, payload={"gradient": gradient})


class TestInThreadCohort:
    """The loopback cohort runs its client sessions in the caller's thread and
    trains them together on the first recv after a broadcast."""

    def test_startup_replies_arrive_in_order(self):
        settings = make_settings(encryption="he")
        endpoint = in_thread(key_source(settings, client_split(1)))
        assert decode_message(*endpoint.recv(settings.timeout_s), settings).kind == MessageKind.KEY_OFFER
        with pytest.raises(ChannelClosed):
            endpoint.recv(settings.timeout_s)

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
            endpoints[1].recv(settings.timeout_s)  # the key offer
        for endpoint in endpoints.values():
            endpoint.send(*encode_message(_round_one(settings), settings))
        for cid in sizes:
            [expected] = _trained_alone(session(cid), _round_one(settings))
            assert endpoints[cid].recv(settings.timeout_s) == expected

    def test_recv_with_nothing_queued_names_the_client(self):
        endpoint = in_thread(ClientSession(make_settings(), 2, client_split(2)))
        start = time.monotonic()
        with pytest.raises(ChannelClosed, match="client 2 has no reply"):
            endpoint.recv(timeout=20.0)
        assert time.monotonic() - start < 1.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_diverged_client_aborts_alone(self):
        # under fedavg round 2's broadcast follows round 1's uploads
        settings = make_settings(aggregator="fedavg")
        sessions = [ClientSession(settings, cid, client_split(cid)) for cid in (1, 2)]
        endpoints = InThreadCohort(sessions).endpoints
        for endpoint in endpoints.values():
            endpoint.send(*encode_message(_round_one(settings), settings))
            endpoint.recv(settings.timeout_s)
        round_two = Message(MessageKind.GLOBAL_GRADIENT, 2, {"gradient": protocol.gradient_to_payload(np.zeros(42))})
        endpoints[1].send(*encode_message(_diverging_round_two(settings), settings))
        endpoints[2].send(*encode_message(round_two, settings))
        abort = decode_message(*endpoints[1].recv(settings.timeout_s), settings)
        assert abort.kind == MessageKind.ABORT and sessions[0].done
        assert abort.payload["reason"] == "NonFiniteInput: local training diverged in round 2"
        alone = ClientSession(settings, 2, client_split(2))
        _trained_alone(alone, _round_one(settings))
        [expected] = _trained_alone(alone, round_two)
        assert endpoints[2].recv(settings.timeout_s) == expected and not sessions[1].done

    def test_sends_after_the_session_ends_are_dropped(self):
        settings = make_settings()
        session = ClientSession(settings, 2, client_split(2))
        endpoint = in_thread(session)
        assert server_says(endpoint, settings, MessageKind.ABORT, 0, {"reason": "test"}) == []
        assert session.done
        round_one = _round_one(settings).payload
        assert server_says(endpoint, settings, MessageKind.GLOBAL_GRADIENT, 1, round_one) == []
        assert session.round == 0 and session.awaits == (MessageKind.GLOBAL_GRADIENT, 1)

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
            # every frame carries its round in 4 bytes
            (dict(rounds=2**32), "rounds"),
        ],
    )
    def test_refused_before_any_frame(self, overrides, field):
        endpoints = {1: ReplayEndpoint([]), 2: ReplayEndpoint([])}
        with pytest.raises(ConfigError, match=rf"^{field}: "):
            server_run(make_settings(**overrides), endpoints)
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
        at = max(i for i, (_cid, k, _body) in enumerate(transcript) if k == kind)
        cid, _kind, body = transcript[at]
        msg = decode_message(kind, body, settings)
        # a round behind the key offer's 0 is the largest the 4-byte field holds
        bad = (msg.round + shift) % 2**32
        transcript[at] = (cid, *encode_message(dataclasses.replace(msg, round=bad), settings))
        endpoints = {c: ReplayEndpoint([(k, b) for i, k, b in transcript if i == c]) for c in (1, 2)}
        cause = f"^client {cid} sent {kind.name} for round {bad} during round {msg.round}$"
        with pytest.raises(ProtocolViolation, match=cause):
            server_run(settings, endpoints)

    @pytest.mark.parametrize("shift", [-1, 8])
    @pytest.mark.parametrize(
        "kind",
        [MessageKind.GLOBAL_GRADIENT, MessageKind.FUSED_GRADIENT, MessageKind.MERGED_GRADIENT],
        ids=lambda kind: kind.name,
    )
    def test_client_aborts_on_a_server_frame_of_another_round(self, kind, shift):
        expected = 2 if kind == MessageKind.GLOBAL_GRADIENT else 1
        # round 2's broadcast comes only in a run of 2 rounds
        settings = make_settings(rounds=expected)
        session = ClientSession(settings, 1, client_split(1))
        # at local round 1, awaiting this kind of frame
        until_it_awaits(session, (kind, expected))
        bad = expected + shift
        [reply] = server_says(in_thread(session), settings, kind, bad, zeros(kind, bad, settings))
        assert session.done
        assert reply.kind == MessageKind.ABORT
        assert reply.payload["reason"] == (
            f"ProtocolViolation: {kind.name} for round {bad} at local round 1, "
            f"awaiting {kind.name} of round {expected}"
        )


G, F, M = MessageKind.GLOBAL_GRADIENT, MessageKind.FUSED_GRADIENT, MessageKind.MERGED_GRADIENT


class TestFrameOrder:
    """A client takes a round's broadcast, then, once it has uploaded, the
    candidates to score under fedboosting, then the next broadcast, or the
    final gradient after the last round. Any other server frame but an ABORT
    ends its session with one ABORT naming the frame and what it awaited."""

    @pytest.mark.parametrize("encryption", ["none", "he_dp"])
    @pytest.mark.parametrize(
        "overrides, point, frame, awaited",
        [
            pytest.param(
                {"rounds": 1}, None, (M, 1), "its upload", id="final_gradient_while_the_upload_is_owed"
            ),
            pytest.param({}, None, (G, 2), "its upload", id="next_broadcast_before_the_upload"),
            pytest.param({}, (G, 2), (F, 1), "GLOBAL_GRADIENT of round 2", id="candidates_scored_twice"),
            pytest.param(
                {"aggregator": "fedavg"}, (G, 2), (F, 1), "GLOBAL_GRADIENT of round 2",
                id="candidates_under_fedavg",
            ),
            pytest.param(
                {}, (F, 2), (M, 2), "FUSED_GRADIENT of round 2", id="final_gradient_before_the_last_scoring"
            ),
        ],
    )
    def test_a_frame_out_of_order_ends_the_session(self, encryption, overrides, point, frame, awaited):
        settings = make_settings(encryption=encryption, **overrides)
        # client 1, which would answer the final gradient with the final model
        session = until_it_awaits(key_source(settings, client_split(1)), point)
        local = session.round
        kind, round_no = frame
        raw = encode_message(server_frame(session, kind, round_no), settings)
        [reply] = [decode_message(*r, settings) for r in session.respond(*raw)]
        assert (reply.kind, reply.round) == (MessageKind.ABORT, local)
        assert reply.payload["reason"] == (
            f"ProtocolViolation: {kind.name} for round {round_no} at local round {local}, awaiting {awaited}"
        )
        assert session.done
        assert session.respond(*raw) == [] and session.upload() == []


class TestServerAbortsEveryone:
    """Whatever ends a run after the config check, the server sends every
    client an ABORT with the error, and the error names the client at fault."""

    @staticmethod
    def _assert_every_client_aborted(settings, endpoints, err, round_no=1):
        reason = f"{type(err.value).__name__}: {err.value}"
        for endpoint in endpoints.values():
            last = decode_message(*endpoint.sent[-1], settings)
            abort = Message(MessageKind.ABORT, round_no, {"reason": reason})
            assert last == abort

    @pytest.mark.parametrize(
        "kind, edit, error, cause",
        [
            pytest.param(
                MessageKind.KEY_OFFER,
                lambda m, body: (MessageKind.KEY_DELIVER, body),
                ProtocolViolation,
                r"^client 1: KEY_DELIVER is retired \(KEY_OFFER, round 0\)$",
                id="key_delivery_for_the_offer",
            ),
            pytest.param(
                MessageKind.KEY_OFFER,
                lambda m, body: body[:-1],
                ProtocolViolation,
                r"^client 1: KEY_OFFER body has 19 bytes, expected 20 \(KEY_OFFER, round 0\)$",
                id="short_offer",
            ),
            pytest.param(
                MessageKind.KEY_OFFER,
                # an odd-sized modulus in the 16 bytes of a 128-bit one
                lambda m, body: raw_body(0, ((1 << 126) + 1).to_bytes(16, "big")),
                WeakKey,
                r"^client 1: key_bits must be even and >= 64, got 127 \(KEY_OFFER, round 0\)$",
                id="offer_of_a_weak_size",
            ),
            pytest.param(
                MessageKind.KEY_OFFER,
                lambda m, body: raw_body(0, paillier.keygen(64, seed=5).public.n.to_bytes(16, "big")),
                KeyMismatch,
                r"^client 1: offered a 64-bit key, expected 128 \(KEY_OFFER, round 0\)$",
                id="offer_of_a_smaller_key",
            ),
            pytest.param(
                MessageKind.TRAIN_RESULT,
                lambda m, body: (MessageKind.KEY_DELIVER, body),
                ProtocolViolation,
                r"^client 2: KEY_DELIVER is retired \(TRAIN_RESULT, round 1\)$",
                id="key_delivery_for_an_upload",
            ),
            pytest.param(
                MessageKind.TRAIN_RESULT,
                lambda m, body: body + b"\0",
                ProtocolViolation,
                r"^client 2: TRAIN_RESULT body has 1366 bytes, expected 1365 \(TRAIN_RESULT, round 1\)$",
                id="long_upload",
            ),
            pytest.param(
                MessageKind.TRAIN_RESULT,
                lambda m, body: b"",
                ProtocolViolation,
                r"^client 2: TRAIN_RESULT body has 0 bytes, expected 1365 \(TRAIN_RESULT, round 1\)$",
                id="empty_upload",
            ),
            pytest.param(
                MessageKind.EVAL_RESULT,
                lambda m, body: dataclasses.replace(m, payload={"values": f64(-1.0, 0.5)}),
                ProtocolViolation,
                r"^client 2: payload field 'values' has negative losses \(EVAL_RESULT, round 1\)$",
                id="negative_validation_loss",
            ),
            pytest.param(
                MessageKind.FINAL_MODEL,
                lambda m, body: dataclasses.replace(m, payload={"weights": f64(0.0)}),
                ProtocolViolation,
                r"^client 1: FINAL_MODEL body has 12 bytes, expected 340 \(FINAL_MODEL, round 1\)$",
                id="final_model_of_another_size",
            ),
        ],
    )
    def test_tampered_client_frame(self, kind, edit, error, cause):
        settings = make_settings(encryption="he", rounds=1)
        transcript = []
        run_loopback(settings, [client_split(1), client_split(2)], transcript)
        # the last frame of this kind: client 2's for the per-client kinds
        at = max(i for i, (_cid, k, _body) in enumerate(transcript) if k == kind)
        cid, _kind, body = transcript[at]
        msg = decode_message(kind, body, settings)
        # a message, the raw body of a frame of this kind, or a frame's kind and body
        edited = edit(msg, body)
        if isinstance(edited, Message):
            edited = encode_message(edited, settings)
        elif isinstance(edited, bytes):
            edited = (kind, edited)
        transcript[at] = (cid, *edited)
        endpoints = {c: ReplayEndpoint([(k, b) for i, k, b in transcript if i == c]) for c in (1, 2)}
        with pytest.raises(error, match=cause) as err:
            server_run(settings, endpoints)
        self._assert_every_client_aborted(settings, endpoints, err, msg.round)

    def test_eval_result_of_another_round(self):
        settings = make_settings(rounds=1)
        transcript = []
        run_loopback(settings, [client_split(1), client_split(2)], transcript)
        at = max(i for i, (_cid, k, _body) in enumerate(transcript) if k == MessageKind.EVAL_RESULT)
        assert transcript[at][0] == 2
        msg = decode_message(*transcript[at][1:], settings)
        transcript[at] = (2, *encode_message(dataclasses.replace(msg, round=7), settings))
        endpoints = {c: ReplayEndpoint([(k, b) for i, k, b in transcript if i == c]) for c in (1, 2)}
        with pytest.raises(ProtocolViolation, match="^client 2 sent EVAL_RESULT for round 7") as err:
            server_run(settings, endpoints)
        self._assert_every_client_aborted(settings, endpoints, err)

    def test_upload_under_another_key(self):
        settings = make_settings(encryption="he", rounds=1)
        keypair, foreign = cohort_key(settings), paillier.keygen(settings.key_bits, seed=99)
        frames = {}
        for cid, key in ((1, keypair), (2, foreign)):
            upload = {"gradient": _packed_payload(key, settings), "train_loss": f64(0.5)}
            frames[cid] = [encode_message(Message(MessageKind.TRAIN_RESULT, 1, upload), settings)]
        frames[1].insert(0, key_source(settings, client_split(1)).startup()[0])
        endpoints = {cid: ReplayEndpoint(pairs) for cid, pairs in frames.items()}
        cause = r"^client 2: gradient is encrypted under a different key \(TRAIN_RESULT, round 1\)$"
        with pytest.raises(KeyMismatch, match=cause) as err:
            server_run(settings, endpoints)
        self._assert_every_client_aborted(settings, endpoints, err)

    def test_failed_send_names_the_client_kind_and_round(self):
        # client 2's socket peer is gone before the first broadcast
        settings = make_settings(rounds=1)
        session = ClientSession(settings, 1, client_split(1))
        # a copy: the cohort trains the sessions its own endpoints hold
        endpoints = dict(InThreadCohort([session]).endpoints)
        server_end, client_end = socket.socketpair()
        client_end.close()
        endpoints[2] = TcpEndpoint(server_end, protocol.largest_body(settings))
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
            # the largest body is an ABORT's, 4 + 1024 bytes, so a frame has at most 1029
            (
                "none",
                1030,
                r"^client 1: declared length 1030 exceeds limit 1029 \(TRAIN_RESULT, round 1\)$",
            ),
        ],
        ids=["zero_length_offer", "oversize_upload"],
    )
    def test_bad_tcp_header_names_the_client_kind_and_round(self, encryption, length, cause):
        settings = make_settings(rounds=1, encryption=encryption, timeout_s=5.0)
        pairs = {cid: socket.socketpair() for cid in (1, 2)}
        bound = protocol.largest_body(settings)
        endpoints = {cid: TcpEndpoint(server, bound) for cid, (server, _client) in pairs.items()}
        peers = {cid: TcpEndpoint(client, bound) for cid, (_server, client) in pairs.items()}
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
                        frames.append(decode_message(*peers[cid].recv(timeout=5.0), settings))
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
        assert session.handle(_round_one(settings)) == [] and session.awaits is None
        replies = [decode_message(*reply, settings) for reply in session.upload()]
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
        # under fedavg round 2's broadcast follows round 1's upload
        settings = make_settings(aggregator="fedavg")
        session = ClientSession(settings, 2, client_split(2))
        _trained_alone(session, _round_one(settings))
        bound = protocol.largest_body(settings)
        server_end, client_end = (TcpEndpoint(sock, bound) for sock in socket.socketpair())
        try:
            server_end.send(*encode_message(_diverging_round_two(settings), settings))
            client_run(session, client_end)
            abort = decode_message(*server_end.recv(timeout=5.0), settings)
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
        [reply] = server_says(in_thread(session), settings, MessageKind.FUSED_GRADIENT, 1, {"models": models})
        assert session.done and reply.kind == MessageKind.ABORT
        assert reply.payload["reason"] == (
            "ProtocolViolation: FUSED_GRADIENT for round 1 at local round 1, awaiting its upload"
        )

    def test_final_zero_gradient_keeps_weights(self):
        # under fedavg the final gradient follows the last upload
        settings = make_settings(aggregator="fedavg", rounds=1)
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
        weights plus that gradient; any other client answers nothing. Under
        fedavg it follows the last upload."""
        settings = make_settings(aggregator="fedavg", rounds=1)
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
            ClientSession(settings, cid, client_split(cid), dataclasses.replace(keypair))
            for cid in (1, 2)
        ]
        uploads = []
        for session in sessions:
            session.handle(_round_one(settings))
            [reply] = [decode_message(*r, settings) for r in session.upload()]
            uploads.append(reply.payload["gradient"])
        values = [
            [c.value for c in protocol.read_gradient(u, keypair.public, 42, settings.quant).ciphertexts]
            for u in uploads
        ]
        decrypted = []
        decrypt = paillier.decrypt
        monkeypatch.setattr(paillier, "decrypt", lambda kp, c: decrypted.append(c.value) or decrypt(kp, c))
        fused = Message(MessageKind.FUSED_GRADIENT, 1, {"models": uploads[1:]})
        # a session takes the candidates once, so a copy of it scores them again
        again = copy.deepcopy(sessions[0])
        [reply] = sessions[0].handle(fused)
        assert decrypted == values[1]
        # the same losses with an empty memo, which decrypts the peer's upload again
        again.keypair.plaintexts.clear()
        decrypted.clear()
        assert again.handle(fused) == [reply]
        assert decrypted == values[1]
        # and the own loss is the one the relayed upload would give
        own = sessions[0].evaluate_fused(uploads[0])
        assert protocol.read_floats(reply.payload, "values")[0] == own

    def test_final_before_last_round_rejected(self):
        # under fedavg the next broadcast follows the upload
        settings = make_settings(aggregator="fedavg", rounds=3)
        session, _initial, _ = self._trained_session(settings)
        merged = Message(
            MessageKind.MERGED_GRADIENT,
            round=1,
            payload={"gradient": protocol.gradient_to_payload(np.zeros(42))},
        )
        cause = "^MERGED_GRADIENT for round 1 at local round 1, awaiting GLOBAL_GRADIENT of round 2$"
        with pytest.raises(ProtocolViolation, match=cause):
            session.handle(merged)

    def test_cross_validation_before_the_first_broadcast_is_refused(self):
        settings = make_settings()
        session = ClientSession(settings, 2, client_split(2))
        models = [protocol.gradient_to_payload(np.zeros(42))]
        [reply] = server_says(in_thread(session), settings, MessageKind.FUSED_GRADIENT, 0, {"models": models})
        assert session.done and reply.kind == MessageKind.ABORT
        assert reply.payload["reason"] == (
            "ProtocolViolation: FUSED_GRADIENT for round 0 at local round 0, "
            "awaiting GLOBAL_GRADIENT of round 1"
        )

    @pytest.mark.parametrize("client_id", [1, 2])
    def test_every_encrypted_client_needs_the_key_pair(self, client_id):
        with pytest.raises(ValueError, match="every client of an encrypted cohort needs"):
            ClientSession(make_settings(encryption="he"), client_id, client_split(client_id))

    def test_final_wrong_key_rejected(self, key64):
        settings = make_settings(rounds=1, encryption="he")
        session = until_it_awaits(key_source(settings, client_split(1)), (MessageKind.MERGED_GRADIENT, 1))
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
        for cid, kind, body in transcript:
            per_client[cid].append((kind, body))
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
        frames = {c: [(k, b) for i, k, b in transcript if i == c] for c in (1, 2)}
        frames[2].append(encode_message(extra, settings))
        endpoints = {c: ReplayEndpoint(f) for c, f in frames.items()}
        with pytest.raises(error, match=cause):
            server_run(settings, endpoints)
        for endpoint in endpoints.values():
            assert decode_message(*endpoint.sent[-1], settings).kind == MessageKind.ABORT

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
        state_frames = [(int(MessageKind.TRAIN_RESULT), b"{broken")]
        endpoints = {1: ReplayEndpoint(state_frames), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation):
            server_run(settings, endpoints)
