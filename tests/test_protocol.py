import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from fedboost import aggregate as agg
from fedboost import nn, paillier, protocol
from fedboost import quantize as qz
from fedboost.datasets import DatasetSplit, GaussianSpec, LabeledData, generate_client_dataset, split
from fedboost.errors import KeyMismatch, ProtocolViolation, RoundAborted
from fedboost.protocol import (
    ClientSession,
    Message,
    MessageKind,
    ProtocolSettings,
    ServerState,
    client_run,
    decode_message,
    derive_seed,
    distribute_keys,
    encode_message,
    server_run,
)
from fedboost.transport import ReplayEndpoint, encode_frame, loopback_pair

IDENTITY = ((1.0, 0.0), (0.0, 1.0))
_GOOD_BLOB = json.loads(paillier.keypair_to_blob(paillier.keygen(128, seed=5)))


def client_split(seed: int, n_each: int = 60) -> DatasetSplit:
    data = generate_client_dataset(
        [
            GaussianSpec((-2.0, 0.0), IDENTITY, 0, n_each),
            GaussianSpec((2.0, 0.0), IDENTITY, 1, n_each),
        ],
        seed=seed,
    )
    return split(data, 0.8, 0.2, seed=seed + 1)


def make_settings(**overrides) -> ProtocolSettings:
    defaults = dict(
        n_clients=2,
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
    return ProtocolSettings(**defaults)


def run_loopback(settings, splits, transcript=None, missing=()):
    """Minimal in-test harness: client threads over loopback endpoints."""
    endpoints = {}
    threads = []
    try:
        for cid in range(1, settings.n_clients + 1):
            server_ep, client_ep = loopback_pair(capacity=64)
            endpoints[cid] = server_ep
            if cid in missing:
                continue
            session = ClientSession(settings, cid, splits[cid - 1])
            thread = threading.Thread(target=client_run, args=(session, client_ep), daemon=True)
            threads.append(thread)
            thread.start()
        return server_run(settings, endpoints, transcript)
    finally:
        for ep in endpoints.values():
            ep.close()
        for thread in threads:
            thread.join(timeout=10)


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
    def test_relay_and_bitwise_equality(self):
        settings = make_settings(encryption="he_dp")
        source = ClientSession(settings, 1, client_split(1))
        frames = [encode_frame(*encode_message(m)) for m in source.startup()]
        state = ServerState(settings=settings, roster=(1, 2))
        endpoints = {1: ReplayEndpoint(frames), 2: ReplayEndpoint([])}
        distribute_keys(state, endpoints)
        assert state.public_key == source.keypair.public
        relayed = [decode_message(*_frame_parts(f)) for f in endpoints[2].sent]
        assert [m.kind for m in relayed] == [MessageKind.KEY_DELIVER]
        receiver = ClientSession(settings, 2, client_split(2))
        receiver.handle(dataclasses.replace(relayed[0], sender=protocol.SERVER_ID))
        assert receiver.keypair == source.keypair

    def test_server_state_never_holds_secret_material(self):
        settings = make_settings(encryption="he")
        source = ClientSession(settings, 1, client_split(1))
        frames = [encode_frame(*encode_message(m)) for m in source.startup()]
        state = ServerState(settings=settings, roster=(1, 2))
        distribute_keys(state, {1: ReplayEndpoint(frames), 2: ReplayEndpoint([])})
        assert isinstance(state.public_key, paillier.PublicKey)
        _assert_no_keypair(state, path="ServerState")

    def test_duplicate_key_offer(self):
        settings = make_settings(encryption="he")
        source = ClientSession(settings, 1, client_split(1))
        frames = [encode_frame(*encode_message(m)) for m in source.startup()]
        state = ServerState(settings=settings, roster=(1, 2))
        state.public_key = source.keypair.public  # a key is already registered
        with pytest.raises(ProtocolViolation):
            distribute_keys(state, {1: ReplayEndpoint(frames), 2: ReplayEndpoint([])})

    def test_four_client_cohort_shares_one_key(self):
        settings = make_settings(n_clients=4, encryption="he")
        sessions = [ClientSession(settings, cid, client_split(cid)) for cid in range(1, 5)]
        startup = sessions[0].startup()
        deliver = next(m for m in startup if m.kind == MessageKind.KEY_DELIVER)
        relay = Message(MessageKind.KEY_DELIVER, round=0, sender=protocol.SERVER_ID, payload=deliver.payload)
        for session in sessions[1:]:
            session.handle(relay)
        pk = sessions[0].keypair.public
        secret = paillier.encrypt(pk, 424242)
        decrypted = {paillier.decrypt(s.keypair, secret) for s in sessions}
        assert decrypted == {424242}

    @pytest.mark.parametrize(
        "payload, cause",
        [
            ({}, "malformed key blob"),
            ({"blob": json.dumps({"key_bits": 128, "q": "c5"})}, "malformed key blob"),
            ({"blob": json.dumps({"key_bits": 128, "p": "0x1f", "q": "c5"})}, "malformed key blob"),
            ({"blob": json.dumps({**_GOOD_BLOB, "q": _GOOD_BLOB["p"]})}, "distinct"),
            ({"blob": json.dumps({**_GOOD_BLOB, "key_bits": 192})}, "128 bits, expected 192"),
        ],
    )
    def test_bad_key_delivery_aborts_client_promptly(self, payload, cause):
        settings = make_settings(encryption="he", timeout_s=20.0)
        server_ep, client_ep = loopback_pair(capacity=8)
        session = ClientSession(settings, 2, client_split(2))
        thread = threading.Thread(target=client_run, args=(session, client_ep), daemon=True)
        thread.start()
        try:
            server_ep.send(
                *encode_message(Message(MessageKind.KEY_DELIVER, 0, protocol.SERVER_ID, payload))
            )
            reply = decode_message(*server_ep.recv(timeout=5.0))
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            server_ep.close()
            thread.join(timeout=5.0)
        assert reply.kind == MessageKind.ABORT and reply.sender == 2
        assert reply.payload["reason"].startswith("WeakKey: ")
        assert cause in reply.payload["reason"]


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
        ],
    )
    def test_client_aborts_promptly_naming_the_cause(self, kind, round_no, payload, cause):
        settings = make_settings(encryption="he", key_bits=256, rounds=1, timeout_s=20.0)
        server_ep, client_ep = loopback_pair(capacity=8)
        session = ClientSession(settings, 2, client_split(2))
        session.keypair = _KEY256
        if round_no == 2 or kind != MessageKind.GLOBAL_GRADIENT:
            session.handle(_round_one(settings))
        thread = threading.Thread(target=client_run, args=(session, client_ep), daemon=True)
        thread.start()
        try:
            start = time.monotonic()
            server_ep.send(*encode_message(Message(kind, round_no, protocol.SERVER_ID, payload)))
            reply = decode_message(*server_ep.recv(timeout=5.0))
            thread.join(timeout=5.0)
            assert not thread.is_alive() and time.monotonic() - start < 5.0
        finally:
            server_ep.close()
            thread.join(timeout=5.0)
        assert reply.kind == MessageKind.ABORT and reply.sender == 2
        assert reply.payload["reason"].startswith("ProtocolViolation: ")
        assert cause in reply.payload["reason"]

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
        ],
    )
    def test_server_rejects_packed_upload_with_wrong_counts(self, tamper, cause):
        settings = make_settings(encryption="he", key_bits=256, rounds=1)
        source = ClientSession(settings, 1, client_split(1))
        frames = [encode_frame(*encode_message(m)) for m in source.startup()]
        bad = tamper(_packed_payload(source.keypair, settings))
        upload = Message(MessageKind.TRAIN_RESULT, 1, 1, {"gradient": bad, "train_loss": 0.5})
        frames.append(encode_frame(*encode_message(upload)))
        endpoints = {1: ReplayEndpoint(frames), 2: ReplayEndpoint([])}
        with pytest.raises(ProtocolViolation, match=f"client 1: .*{cause}"):
            server_run(settings, endpoints)


def _frame_parts(frame: bytes) -> tuple[int, bytes]:
    return frame[4], frame[5:]


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

    def test_final_wrong_key_rejected(self, key64):
        settings = make_settings(rounds=1, encryption="he")
        session = ClientSession(settings, 1, client_split(1))
        session.startup()
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


def reference_fedavg(settings: ProtocolSettings, splits) -> nn.ModelParams:
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
        assert [r.merged_gradient for r in a.rounds] == [r.merged_gradient for r in b.rounds]

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
            assert a.merged_gradient == b.merged_gradient
        assert np.array_equal(live.final_weights.values, replayed.final_weights.values)

    def test_unresponsive_client_aborts_round(self):
        settings = make_settings(timeout_s=0.3)
        splits = [client_split(1), client_split(2)]
        with pytest.raises(RoundAborted):
            run_loopback(settings, splits, missing=(2,))

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
