"""Fixed-point codec between float gradients and big-integer pieces.

Each entry is scaled by S = 10^scale_exponent, divided by the piece count P and
rounded half-to-even, so integer-only homomorphic aggregation can later apply
weights that were themselves scaled by P. The float-to-rational step is exact
(floats are dyadic rationals); the piece rounding is the only loss, bounded per
entry by P/(2S).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GradientOverflow, InvalidWeight, NonFiniteInput


@dataclass(frozen=True)
class QuantConfig:
    scale_exponent: int = 32
    pieces: int = 100

    def __post_init__(self):
        if self.scale_exponent < 1:
            raise ValueError(f"scale_exponent must be >= 1, got {self.scale_exponent}")
        if self.pieces < 1:
            raise ValueError(f"pieces must be >= 1, got {self.pieces}")

    @property
    def scale(self) -> int:
        return 10**self.scale_exponent


@dataclass
class QuantizedGradient:
    """Signed integers, one per gradient entry, plus the codec parameters."""

    values: list[int]
    config: QuantConfig


def quantize(g: np.ndarray, cfg: QuantConfig) -> QuantizedGradient:
    """Per entry: round-half-even(x * S / P), with x * S taken exactly in rationals."""
    g = np.asarray(g, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NonFiniteInput("gradient entries must be finite")
    scale = cfg.scale
    values = [round(Fraction(float(x)) * scale / cfg.pieces) for x in g]
    return QuantizedGradient(values=values, config=cfg)


def dequantize(q: QuantizedGradient) -> np.ndarray:
    """Nearest float64 to value * P / S per entry."""
    scale = q.config.scale
    pieces = q.config.pieces
    return np.array([float(Fraction(v * pieces, scale)) for v in q.values], dtype=np.float64)


def quantize_weight(p: float, pieces: int) -> int:
    """Round-half-even(p * P) for an aggregation weight p in [0, 1]."""
    if not (0 <= p <= 1):
        raise InvalidWeight(f"weight must lie in [0, 1], got {p}")
    return round(Fraction(float(p)) * pieces)


def check_capacity(q: QuantizedGradient, capacity: int, n_clients: int, pieces: int) -> None:
    """Require 2 * N * P * |v| < capacity for every entry, so a sum of N entries
    weighted by integers up to P stays in the signed range of a plaintext slot
    of that capacity (the modulus n when a ciphertext holds one entry)."""
    for index, v in enumerate(q.values):
        if 2 * n_clients * pieces * abs(v) >= capacity:
            raise GradientOverflow(
                f"entry {index} ({v}) would overflow its plaintext slot for "
                f"N={n_clients}, P={pieces}"
            )
