"""What each encryption mode hides, and from whom.

Every client holds the one cohort key pair (the shared-key model of Phong et
al., "Privacy-Preserving Deep Learning via Additively Homomorphic Encryption",
IEEE TIFS 2018). These tests rebuild gradients from nothing but the frames a
party is handed, and compare them entry for entry with the quantized gradient
each client uploaded.
"""

from fedboost import aggregate as agg
from fedboost import paillier, protocol
from fedboost import quantize as qz
from fedboost.config import ClientSpec, ExperimentConfig
from fedboost.datasets import GaussianSpec
from fedboost.protocol import ClientSession, InThreadEndpoint, MessageKind, decode_message
from fedboost.runner import build_splits
from fedboost.transport import decode_frame

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def cohort(n_clients: int, encryption: str) -> ExperimentConfig:
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
        aggregator="fedboosting",
        encryption=encryption,
        rounds=2,
        key_bits=256,
        master_seed=3,
    )


class Tap:
    """The server's endpoint to one client; keeps every message it delivers."""

    def __init__(self, inner):
        self.inner = inner
        self.delivered = []

    def send(self, kind: int, body: bytes) -> None:
        self.delivered.append(decode_message(kind, body))
        self.inner.send(kind, body)

    def recv(self, timeout=None):
        return self.inner.recv(timeout)


def run(cfg: ExperimentConfig, monkeypatch):
    """A loopback run. Returns every client's quantized upload per round
    (``uploads[r][j]`` is client j + 1's), client 1's key pair, the messages
    the server delivered to client 1, and the server's inbound transcript."""
    quantized = []
    quantize = qz.quantize

    def recorded(g, quant):
        quantized.append(quantize(g, quant))
        return quantized[-1]

    monkeypatch.setattr(qz, "quantize", recorded)
    keypair = paillier.keygen(cfg.key_bits, protocol.derive_seed(cfg.master_seed, "keygen"))
    splits = build_splits(cfg)
    sessions = [ClientSession(cfg, 1, splits[0], keypair)]
    sessions += [ClientSession(cfg, cid, split) for cid, split in enumerate(splits[1:], 2)]
    endpoints = {s.client_id: Tap(InThreadEndpoint(s)) for s in sessions}
    transcript = []
    protocol.server_run(cfg, endpoints, transcript)
    # in-thread clients train inside the server's broadcast, in id order
    n = cfg.n_clients
    uploads = [[q.values for q in quantized[r * n : (r + 1) * n]] for r in range(cfg.rounds)]
    return uploads, sessions[0].keypair, endpoints[1].delivered, transcript


def decrypt(keypair: paillier.KeyPair, payload: dict) -> list[int]:
    eg = protocol.encrypted_gradient_from_payload(payload, keypair.public)
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
    assert cross_validation_models(keypair, delivered) == uploads


def test_he_dp_two_clients_client_one_rebuilds_its_peer(monkeypatch):
    cfg = cohort(2, "he_dp")
    uploads, keypair, delivered, _ = run(cfg, monkeypatch)
    a, b = fusion_weights(cfg)
    assert (a, b) == (90, 10)
    fused = cross_validation_models(keypair, delivered)
    for (q1, q2), (f1, _f2) in zip(uploads, fused, strict=True):
        # q_2 = (F_1 - a*q_1) / b
        assert [(f - a * own) // b for f, own in zip(f1, q1)] == q2


def test_he_dp_three_clients_client_one_rebuilds_both_peers(monkeypatch):
    cfg = cohort(3, "he_dp")
    uploads, keypair, delivered, _ = run(cfg, monkeypatch)
    a, b = fusion_weights(cfg)
    assert (a, b) == (90, 5)
    for q, fused in zip(uploads, cross_validation_models(keypair, delivered), strict=True):
        for j in (1, 2):
            # F_1 - F_j = (a - b)(q_1 - q_j)
            rebuilt = [own - (f1 - fj) // (a - b) for own, f1, fj in zip(q[0], fused[0], fused[j])]
            assert rebuilt == q[j]


def test_server_that_reads_the_key_it_relays_decrypts_every_upload(monkeypatch):
    cfg = cohort(2, "he_dp")
    uploads, keypair, _, transcript = run(cfg, monkeypatch)
    inbound = [decode_message(*decode_frame(frame)) for _cid, frame in transcript]
    blob = next(m for m in inbound if m.kind == MessageKind.KEY_DELIVER).payload["blob"]
    relayed = paillier.keypair_from_blob(blob)
    assert relayed == keypair
    trained = [m.payload["gradient"] for m in inbound if m.kind == MessageKind.TRAIN_RESULT]
    assert [decrypt(relayed, g) for g in trained] == [q for per_round in uploads for q in per_round]
