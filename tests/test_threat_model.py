"""What each encryption mode hides, and from whom.

Every client holds the one cohort key pair, handed over out of band (the
shared-key model of Phong et al., "Privacy-Preserving Deep Learning via
Additively Homomorphic Encryption", IEEE TIFS 2018). These tests rebuild
gradients from nothing but the frames a party is handed, and compare them
entry for entry with the quantized gradient each client uploaded; and they
decode and scan every frame through the server for the secret key.
"""

import pytest

from fedboost import aggregate as agg
from fedboost import paillier, protocol
from fedboost import quantize as qz
from fedboost.config import ClientSpec, ExperimentConfig
from fedboost.datasets import GaussianSpec
from fedboost.protocol import (
    ClientSession,
    InThreadCohort,
    MessageKind,
    decode_message,
    encode_message,
)
from fedboost.runner import build_splits
from fedboost.transport import encode_frame

from test_protocol import bytes_within

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def cohort(n_clients: int, encryption: str, aggregator: str = "fedboosting") -> ExperimentConfig:
    clients = tuple(
        ClientSpec(
            clusters=(
                GaussianSpec((-2.0, float(i)), IDENTITY, 0, 100),
                GaussianSpec((2.0, -float(i)), IDENTITY, 1, 100),
            ),
            seed=i + 1,
        )
        for i in range(n_clients)
    )
    return ExperimentConfig(
        clients=clients,
        aggregator=aggregator,
        encryption=encryption,
        rounds=2,
        key_bits=256,
        master_seed=3,
    )


class Tap:
    """The server's endpoint to one client; keeps every message it delivers."""

    def __init__(self, inner, settings):
        self.inner = inner
        self.settings = settings
        self.delivered = []

    def send(self, kind: int, body: bytes) -> None:
        self.delivered.append(decode_message(kind, body, self.settings))
        self.inner.send(kind, body)

    def recv(self, timeout=None):
        return self.inner.recv(timeout)


def run(cfg: ExperimentConfig, monkeypatch):
    """A loopback run. Returns every client's quantized upload per round
    (``uploads[r][j]`` is client j + 1's), the cohort key pair, the messages
    the server delivered to each client by id, and the server's inbound
    transcript."""
    quantized = []
    quantize = qz.quantize

    def recorded(g, quant):
        quantized.append(quantize(g, quant))
        return quantized[-1]

    monkeypatch.setattr(qz, "quantize", recorded)
    keypair = paillier.keygen(cfg.key_bits, protocol.derive_seed(cfg.master_seed, "keygen"))
    splits = build_splits(cfg)
    sessions = [ClientSession(cfg, cid, split, keypair) for cid, split in enumerate(splits, 1)]
    endpoints = {cid: Tap(ep, cfg) for cid, ep in InThreadCohort(sessions).endpoints.items()}
    transcript = []
    protocol.server_run(cfg, endpoints, transcript)
    # the in-thread cohort builds its uploads in id order
    n = cfg.n_clients
    uploads = [[q.values for q in quantized[r * n : (r + 1) * n]] for r in range(cfg.rounds)]
    delivered = {cid: endpoint.delivered for cid, endpoint in endpoints.items()}
    return uploads, keypair, delivered, transcript


def decrypt(keypair: paillier.KeyPair, payload: dict) -> list[int]:
    """The quantized integers of a packed gradient of the default model."""
    eg = protocol.read_gradient(payload, keypair.public, 42, qz.QuantConfig())
    return agg.decrypt_gradient(keypair, eg).values


def cross_validation_models(keypair, delivered) -> list[list[list[int]]]:
    """Per round, the decrypted models of the FUSED_GRADIENT a client received."""
    return [
        [decrypt(keypair, model) for model in m.payload["models"]]
        for m in delivered
        if m.kind == MessageKind.FUSED_GRADIENT
    ]


def fusion_weights(cfg: ExperimentConfig) -> tuple[int, int]:
    """The integer weights a and b of fused model i = a*q_i + b*sum of the others."""
    a = qz.quantize_weight(cfg.p_hat, cfg.quant.pieces)
    b = qz.quantize_weight((1 - cfg.p_hat) / (cfg.n_clients - 1), cfg.quant.pieces)
    return a, b


def test_he_client_decrypts_every_peer_upload(monkeypatch):
    cfg = cohort(3, "he")
    uploads, keypair, delivered, _ = run(cfg, monkeypatch)
    # each client gets its peers' uploads in id order, as it holds its own
    for cid in (1, 2, 3):
        peers = [models[: cid - 1] + models[cid:] for models in uploads]
        assert cross_validation_models(keypair, delivered[cid]) == peers


def test_he_dp_two_clients_client_one_rebuilds_its_peer(monkeypatch):
    cfg = cohort(2, "he_dp")
    uploads, keypair, delivered, _ = run(cfg, monkeypatch)
    a, b = fusion_weights(cfg)
    assert (a, b) == (90, 10)
    fused = cross_validation_models(keypair, delivered[1])
    for (q1, q2), (f1, _f2) in zip(uploads, fused, strict=True):
        # q_2 = (F_1 - a*q_1) / b
        assert [(f - a * own) // b for f, own in zip(f1, q1)] == q2


def test_he_dp_three_clients_client_one_rebuilds_both_peers(monkeypatch):
    cfg = cohort(3, "he_dp")
    uploads, keypair, delivered, _ = run(cfg, monkeypatch)
    a, b = fusion_weights(cfg)
    assert (a, b) == (90, 5)
    for q, fused in zip(uploads, cross_validation_models(keypair, delivered[1]), strict=True):
        for j in (1, 2):
            # F_1 - F_j = (a - b)(q_1 - q_j)
            rebuilt = [own - (f1 - fj) // (a - b) for own, f1, fj in zip(q[0], fused[0], fused[j])]
            assert rebuilt == q[j]


def test_fedavg_pair_rebuilds_peer_gradient_from_the_merge(monkeypatch):
    cfg = cohort(2, "he", aggregator="fedavg")
    uploads, keypair, delivered, _ = run(cfg, monkeypatch)
    # FedAvg's weights are 1/N, so both clients know the merge weight k
    k = qz.quantize_weight(1 / cfg.n_clients, cfg.quant.pieces)
    assert k == 50
    # each round's merge reaches client 1 in the next broadcast, the last one
    # as the final merged gradient
    merges = [
        decrypt(keypair, m.payload["gradient"])
        for m in delivered[1]
        if m.kind in (MessageKind.GLOBAL_GRADIENT, MessageKind.MERGED_GRADIENT)
        and "gradient" in m.payload
    ]
    for (q1, q2), merged in zip(uploads, merges, strict=True):
        # M = k*q_1 + k*q_2, so q_2 = (M - k*q_1) / k
        assert [(m - k * own) // k for m, own in zip(merged, q1)] == q2


@pytest.mark.parametrize(
    "n_clients, encryption, aggregator, frames_in, frames_out",
    [
        pytest.param(2, "he", "fedboosting", 10, 10, id="he"),
        pytest.param(2, "he_dp", "fedboosting", 10, 10, id="he_dp"),
        pytest.param(2, "he", "fedavg", 6, 6, id="he-fedavg"),
        pytest.param(3, "he_dp", "fedboosting", 14, 15, id="he_dp-3_clients"),
    ],
)
def test_no_frame_through_the_server_carries_the_secret_key(
    n_clients, encryption, aggregator, frames_in, frames_out, monkeypatch
):
    cfg = cohort(n_clients, encryption, aggregator)
    _, keypair, delivered, transcript = run(cfg, monkeypatch)
    inbound = [encode_frame(kind, body) for _cid, kind, body in transcript]
    outbound = [encode_message(m, cfg)[1] for messages in delivered.values() for m in messages]
    # key offer, uploads, cross-validation losses and the final model in;
    # broadcasts, models to score and the merged gradient out
    assert (len(inbound), len(outbound)) == (frames_in, frames_out)
    # big integers travel as raw big-endian bytes: the public modulus is one
    # such value, which shows that a prime sent so would be found
    width = cfg.key_bits // 8
    values = [v for _cid, *frame in transcript for v in bytes_within(decode_message(*frame, cfg).payload)]
    values += [v for messages in delivered.values() for m in messages for v in bytes_within(m.payload)]
    assert keypair.public.n.to_bytes(width, "big") in values
    assert not {keypair.p, keypair.q} & {int.from_bytes(v, "big") for v in values}
    # and no frame spells either prime at any offset, in bytes, hex or decimal
    for secret in (keypair.p, keypair.q):
        spellings = [secret.to_bytes(width // 2, "big"), format(secret, "x").encode(), str(secret).encode()]
        assert not any(s in f for s in spellings for f in inbound + outbound)
