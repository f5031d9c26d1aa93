"""Gradient fusion: uniform averaging, boosted weighting, and the encrypted
merge paths that mirror them over Paillier ciphertexts.

Boosted weights combine each client's training loss with the row sums of the
cross-validation loss matrix. Two readings of that combination are provided:
``literal`` multiplies softmax(T) by the row sums as written, ``score`` negates
the row sums first so that a model that validates poorly everywhere (for
example a poisoned one) receives a smaller weight. ``score`` is the default.

Encrypted gradients pack several quantized entries into one Paillier
plaintext (as in BatchCrypt, Zhang et al., USENIX ATC 2020). Entries
v_0..v_(s-1) become the signed integer sum_j v_j * 2^(w*j), sign-encoded with
:func:`paillier.encode_signed`; decryption extracts signed digits: take the
low w bits, subtract 2^w when they are at least 2^(w-1), shift right by w.
The width w is ``SLOT_BITS`` = 127, the signed range of the smallest 128-bit
modulus, and a key of b bits holds s = max(1, (b-1) // w) slots: one at 128
bits, 8 at 1024 and 16 at 2048. A gradient of L entries takes ceil(L/s)
ciphertexts; the last one is zero-padded. Every party derives s from the key
size alone, so the layout needs no negotiation.

Homomorphic addition and scalar multiplication act on every slot at once.
Each integer weight k_i lies in [0, P], so a weighted sum of N gradients has
|sum_i k_i v_i| <= N * P * max|v| per slot, and :func:`quantize.check_capacity`
admits an entry when 2 * N * P * |v| is below the slot capacity: 2^w, or the
whole modulus n when a ciphertext holds one slot (the unpacked rule, so
128-bit ciphertexts are unchanged). Then no slot borrows from or carries into
its neighbour, and the packed sum stays below 2^(w*s - 1) <= n/2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import paillier, quantize
from .errors import DegenerateCohort, EmptyCohort, InvalidWeight, KeyMismatch, ShapeMismatch
from .paillier import Ciphertext, KeyPair, PublicKey
from .quantize import QuantConfig, QuantizedGradient, quantize_weight

SLOT_BITS = 127


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


def slots_per_ciphertext(key_bits: int) -> int:
    """Gradient entries one plaintext of a ``key_bits`` modulus holds."""
    return max(1, (key_bits - 1) // SLOT_BITS)


def slot_capacity(pk: PublicKey) -> int:
    """Exclusive bound on 2 * |slot value| for :func:`quantize.check_capacity`."""
    return pk.n if slots_per_ciphertext(pk.key_bits) == 1 else 1 << SLOT_BITS


@dataclass
class EncryptedGradient:
    """Paillier ciphertexts of ``entries`` signed quantized values, packed
    slots_per_ciphertext(key_bits) to a ciphertext. ``config`` states how
    decrypted integers decode back to reals: value * pieces / scale.
    Server-side weighting consumes the piece factor, so merged and fused
    gradients carry ``pieces=1``. ``len`` counts ciphertexts."""

    ciphertexts: list[Ciphertext]
    config: QuantConfig
    entries: int

    def __post_init__(self):
        slots = slots_per_ciphertext(self.ciphertexts[0].public.key_bits) if self.ciphertexts else 1
        if self.entries < 0 or len(self.ciphertexts) != -(-self.entries // slots):
            raise ShapeMismatch(
                f"{len(self.ciphertexts)} ciphertexts cannot hold {self.entries} entries "
                f"at {slots} per ciphertext"
            )

    def __len__(self) -> int:
        return len(self.ciphertexts)


def encrypt_gradient(
    key: PublicKey | KeyPair,
    q: QuantizedGradient,
    rng: random.Random | None = None,
    n_clients: int = 1,
    pieces: int = 1,
) -> EncryptedGradient:
    """Pack and encrypt ``q``, leaving every slot room for a weighted sum of
    ``n_clients`` gradients with integer weights up to ``pieces``; raises
    GradientOverflow naming the first entry that does not fit. Key holders
    pass the KeyPair for faster, identical ciphertexts."""
    pk = key.public if isinstance(key, KeyPair) else key
    quantize.check_capacity(q, slot_capacity(pk), n_clients, pieces)
    slots = slots_per_ciphertext(pk.key_bits)
    cts = []
    for start in range(0, len(q.values), slots):
        packed = 0
        for v in reversed(q.values[start : start + slots]):
            packed = (packed << SLOT_BITS) + v
        cts.append(paillier.encrypt(key, paillier.encode_signed(packed, pk.n), rng))
    return EncryptedGradient(ciphertexts=cts, config=q.config, entries=len(q.values))


def decrypt_gradient(kp: KeyPair, eg: EncryptedGradient) -> QuantizedGradient:
    slots = slots_per_ciphertext(kp.key_bits)
    mask, half = (1 << SLOT_BITS) - 1, 1 << (SLOT_BITS - 1)
    values = []
    for c in eg.ciphertexts:
        packed = paillier.decode_signed(paillier.decrypt(kp, c), kp.public.n)
        for _ in range(slots - 1):
            digit = packed & mask
            if digit >= half:
                digit -= mask + 1
            values.append(digit)
            packed = (packed - digit) >> SLOT_BITS
        values.append(packed)  # the top slot is what remains
    return QuantizedGradient(values=values[: eg.entries], config=eg.config)


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
    entries = egrads[0].entries
    for eg in egrads:
        if eg.config != cfg:
            raise ShapeMismatch("encrypted gradients carry different quantization configs")
        if eg.entries != entries:
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
        ciphertexts=cts, config=QuantConfig(cfg.scale_exponent, pieces=1), entries=egrads[0].entries
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
        fused.append(EncryptedGradient(ciphertexts=cts, config=out_cfg, entries=egrads[0].entries))
    return fused
