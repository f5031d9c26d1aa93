"""Gradient fusion: uniform averaging, boosted weighting, and the encrypted
merge paths that mirror them over Paillier ciphertexts.

Boosted weights combine each client's training loss with the row sums of the
cross-validation loss matrix. Two readings of that combination are provided:
``literal`` multiplies softmax(T) by the row sums as written, ``score`` negates
the row sums first so that a model that validates poorly everywhere (for
example a poisoned one) receives a smaller weight. ``score`` is the default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import paillier
from .errors import DegenerateCohort, EmptyCohort, InvalidWeight, KeyMismatch, ShapeMismatch
from .paillier import Ciphertext, KeyPair, PublicKey
from .quantize import QuantConfig, QuantizedGradient, quantize_weight


@dataclass
class ValidationMatrix:
    """Entry (i, j) is the loss of client i's candidate model on client j's
    validation set."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ShapeMismatch(f"validation matrix must be square, got {self.values.shape}")
        if self.values.shape[0] < 2:
            raise ShapeMismatch("cross-validation needs at least 2 clients")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("validation losses must be finite and non-negative")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.values.sum(axis=1)


@dataclass
class AggregationWeights:
    """Convex weights over clients; ``mode`` records how they were derived
    (``literal``/``score`` for boosted weights, None for uniform)."""

    values: np.ndarray
    mode: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise EmptyCohort("weights must be a non-empty vector")
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise InvalidWeight("weights must lie in [0, 1]")
        if abs(self.values.sum() - 1.0) > 1e-12:
            raise InvalidWeight(f"weights must sum to 1, got {self.values.sum()!r}")


@dataclass(frozen=True)
class DpFusionConfig:
    """Perturbation weights for cross-validation: the target model keeps the
    dominant share p_hat, the rest is spread evenly over the other models.
    ``jitter`` > 0 adds a per-call uniform offset in [-jitter, jitter]."""

    p_hat: float = 0.9
    pieces: int = 100
    jitter: float = 0.0

    def __post_init__(self):
        if not (0 < self.p_hat <= 1):
            raise InvalidWeight(f"p_hat must lie in (0, 1], got {self.p_hat}")
        if self.pieces < 1:
            raise ValueError(f"pieces must be >= 1, got {self.pieces}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


@dataclass
class EncryptedGradient:
    """Paillier ciphertexts of signed-encoded quantized entries. ``config``
    states how decrypted integers decode back to reals: value * pieces / scale.
    Server-side weighting consumes the piece factor, so merged and fused
    gradients carry ``pieces=1``."""

    ciphertexts: list[Ciphertext]
    config: QuantConfig

    def __len__(self) -> int:
        return len(self.ciphertexts)


def encrypt_gradient(
    key: PublicKey | KeyPair, q: QuantizedGradient, rng: random.Random | None = None
) -> EncryptedGradient:
    """Key holders pass the KeyPair for faster, identical ciphertexts."""
    n = key.public.n if isinstance(key, KeyPair) else key.n
    cts = [paillier.encrypt(key, paillier.encode_signed(v, n), rng) for v in q.values]
    return EncryptedGradient(ciphertexts=cts, config=q.config)


def decrypt_gradient(kp: KeyPair, eg: EncryptedGradient) -> QuantizedGradient:
    values = [
        paillier.decode_signed(paillier.decrypt(kp, c), kp.public.n) for c in eg.ciphertexts
    ]
    return QuantizedGradient(values=values, config=eg.config)


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def fedavg_weights(n: int) -> AggregationWeights:
    """Uniform 1/N weights."""
    if n < 1:
        raise EmptyCohort(f"cohort size must be >= 1, got {n}")
    return AggregationWeights(np.full(n, 1.0 / n), mode=None)


def fedboost_weights(
    T: np.ndarray, V: ValidationMatrix, mode: str = "score"
) -> AggregationWeights:
    """softmax(softmax(T) * v) with v the row sums of V (negated in score mode)."""
    if mode not in ("literal", "score"):
        raise ValueError(f"mode must be 'literal' or 'score', got {mode!r}")
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 1 or T.shape[0] != V.n:
        raise ShapeMismatch(f"training losses {T.shape} do not match matrix size {V.n}")
    if not np.all(np.isfinite(T)):
        raise ValueError("training losses must be finite")
    v = V.row_sums()
    if mode == "score":
        v = -v
    return AggregationWeights(softmax(softmax(T) * v), mode=mode)


def merge_plain(grads: list[np.ndarray], w: AggregationWeights) -> np.ndarray:
    """Elementwise sum of w_i * G_i, accumulated in client order."""
    if len(grads) != w.values.size:
        raise ShapeMismatch(f"{len(grads)} gradients vs {w.values.size} weights")
    length = grads[0].shape[0]
    for g in grads:
        if g.shape != (length,):
            raise ShapeMismatch("gradient lengths differ")
    merged = np.zeros(length)
    for weight, g in zip(w.values, grads):
        merged += weight * g
    return merged


def _weighted_ciphertext_sum(
    pk: PublicKey, egrads: list[EncryptedGradient], int_weights: list[int], entry: int
) -> Ciphertext:
    acc = None
    for k, eg in zip(int_weights, egrads):
        term = paillier.he_scalar_mul(pk, k, eg.ciphertexts[entry])
        acc = term if acc is None else paillier.he_add(pk, acc, term)
    return acc


def _common_config(egrads: list[EncryptedGradient], pk: PublicKey) -> QuantConfig:
    cfg = egrads[0].config
    length = len(egrads[0])
    for eg in egrads:
        if eg.config != cfg:
            raise ShapeMismatch("encrypted gradients carry different quantization configs")
        if len(eg) != length:
            raise ShapeMismatch("encrypted gradient lengths differ")
        for c in eg.ciphertexts:
            if c.public.n != pk.n:
                raise KeyMismatch("encrypted gradients are under different keys")
    return cfg


def merge_encrypted(
    pk: PublicKey, egrads: list[EncryptedGradient], w: AggregationWeights, pieces: int
) -> EncryptedGradient:
    """Homomorphic sum of round(w_i * P) times each encrypted gradient.

    Decrypting an entry and dividing by the scale S yields
    sum_i round(w_i*P) * g_i / S, which approximates the plain merge within
    sum_i |G_i|/(2P) + N*P/(2S) per entry."""
    if len(egrads) != w.values.size:
        raise ShapeMismatch(f"{len(egrads)} gradients vs {w.values.size} weights")
    cfg = _common_config(egrads, pk)
    int_weights = [quantize_weight(float(p), pieces) for p in w.values]
    cts = [
        _weighted_ciphertext_sum(pk, egrads, int_weights, e) for e in range(len(egrads[0]))
    ]
    return EncryptedGradient(
        ciphertexts=cts, config=QuantConfig(cfg.scale_exponent, pieces=1)
    )


def dp_fuse(
    pk: PublicKey,
    egrads: list[EncryptedGradient],
    cfg: DpFusionConfig,
    rng: random.Random | None = None,
) -> list[EncryptedGradient]:
    """Perturbed copy of every encrypted gradient for cross-validation.

    Fused model i is round(p_hat*P) times gradient i plus
    round((1-p_hat)*P/(N-1)) times every other gradient, entirely under
    homomorphic operations; nothing is decrypted here."""
    n_models = len(egrads)
    if n_models < 2:
        raise DegenerateCohort("fusion needs at least 2 models; disable it for 1")
    quant_cfg = _common_config(egrads, pk)
    p_hat = cfg.p_hat
    if cfg.jitter > 0:
        if rng is None:
            raise ValueError("jitter requires an rng")
        p_hat = min(1.0, max(1.0 / n_models + 1e-9, p_hat + rng.uniform(-cfg.jitter, cfg.jitter)))
    if p_hat * n_models <= 1:
        raise InvalidWeight(
            f"p_hat={p_hat} must exceed 1/N={1 / n_models} so the own model dominates"
        )
    k_self = quantize_weight(p_hat, cfg.pieces)
    k_other = quantize_weight((1.0 - p_hat) / (n_models - 1), cfg.pieces)
    if k_self <= k_other:
        raise InvalidWeight(
            f"piece resolution P={cfg.pieces} erases the dominance of p_hat={p_hat} "
            f"over {(1.0 - p_hat) / (n_models - 1)}; raise P or p_hat"
        )
    out_cfg = QuantConfig(quant_cfg.scale_exponent, pieces=1)
    fused = []
    for i in range(n_models):
        int_weights = [k_self if j == i else k_other for j in range(n_models)]
        cts = [
            _weighted_ciphertext_sum(pk, egrads, int_weights, e)
            for e in range(len(egrads[0]))
        ]
        fused.append(EncryptedGradient(ciphertexts=cts, config=out_cfg))
    return fused
