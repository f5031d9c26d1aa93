"""Paillier cryptosystem over Python big integers.

Additively homomorphic: multiplying two ciphertexts adds the plaintexts mod n,
and raising a ciphertext to an integer power multiplies its plaintext. Uses the
g = n+1 variant, so encryption needs no exponentiation by g.

The key holder works modulo p^2 and q^2 and recombines by the Chinese
remainder theorem (Paillier, EUROCRYPT 1999, section 7). Decryption computes
m mod p = L_p(c^(p-1) mod p^2) * h_p mod p with L_p(u) = (u-1)/p and
h_p = (-q)^-1 mod p (the same for q), then m mod n. Encryption under a
:class:`KeyPair` computes the nonce term r^n mod p^2 by lifting from mod p:
(r^(q mod (p-1)) mod p)^p mod p^2, since a^p mod p^2 depends only on a mod p
(the same for q). That is a half-size exponent modulo p and another modulo
p^2 in place of a full-size one modulo p^2; the ciphertext equals the one
:class:`PublicKey` encryption gives for the same nonce.

Prime search rejects a candidate with a prime factor below a few thousand by
one gcd with their product. It draws the same Miller-Rabin witnesses from the
rng as the unsieved test would, so a seed gives the same key either way.

Key generation accepts a seed so experiment runs are reproducible; pass
``seed=None`` (and ``rng=None`` to :func:`encrypt`) for OS randomness. The
default 128-bit modulus matches the experimental setup here but is far below
modern security margins; raise ``key_bits`` for anything beyond simulation.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import CapacityExceeded, KeyMismatch, PlaintextOutOfRange, WeakKey

_MILLER_RABIN_ROUNDS = 40
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@dataclass(frozen=True)
class PublicKey:
    n: int
    key_bits: int

    @cached_property
    def n_squared(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    p: int
    q: int
    h_p: int  # (-q)^-1 mod p, which is L_p(g^(p-1) mod p^2)^-1 for g = n+1
    h_q: int  # (-p)^-1 mod q
    p_sq_inv: int  # (p^2)^-1 mod q^2

    @property
    def key_bits(self) -> int:
        return self.public.key_bits

    def _nonce_power(self, r: int) -> int:
        """r^n mod n^2 by CRT over p^2 and q^2, each lifted from mod p (mod q),
        for r coprime to n: r^n = (r^q)^p, and a^p mod p^2 depends on a mod p."""
        p, q = self.p, self.q
        p_sq, q_sq = p * p, q * q
        x_p = pow(pow(r, q % (p - 1), p), p, p_sq)
        x_q = pow(pow(r, p % (q - 1), q), q, q_sq)
        return x_p + (x_q - x_p) * self.p_sq_inv % q_sq * p_sq


@dataclass(frozen=True)
class Ciphertext:
    value: int
    public: PublicKey

    def __post_init__(self):
        if not (0 < self.value < self.public.n_squared):
            raise ValueError("ciphertext value out of range")


def _primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound, i)))
    return [i for i, is_prime in enumerate(sieve) if is_prime]


# Product of the primes from 53 (the first after _SMALL_PRIMES) below _SIEVE_BOUND.
# A larger bound rejects more candidates per gcd, but the gcd's cost grows with
# the primorial and outweighs the saving at small key sizes.
_SIEVE_BOUND = 3000
_PRIMORIAL = math.prod(p for p in _primes_below(_SIEVE_BOUND) if p > _SMALL_PRIMES[-1])


def _is_probable_prime(candidate: int, rng: random.Random, rounds: int = _MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin with ``rounds`` random witnesses after trial division.

    A candidate with a prime factor below _SIEVE_BOUND is composite. For it a
    drawn witness ``a`` with a^(candidate-1) != 1 modulo those factors is not a
    Fermat liar, so the Miller-Rabin round would fail: return at once. Only
    when ``a`` might be a liar does the full round run. The result and the
    witnesses drawn from ``rng`` are therefore those of plain Miller-Rabin, and
    seeded key generation gives the same primes with or without the sieve.
    """
    if candidate < 2:
        return False
    for p in _SMALL_PRIMES:
        if candidate % p == 0:
            return candidate == p
    small_factors = math.gcd(candidate, _PRIMORIAL) if candidate > _SIEVE_BOUND else 1
    d, s = candidate - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 1)
        if small_factors != 1 and pow(a, candidate - 1, small_factors) != 1:
            return False
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(s - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: random.Random) -> int:
    # Top two bits forced so the product of two such primes has exactly 2*bits bits.
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def _check_key_bits(key_bits: int, n: int | None = None) -> None:
    if key_bits < 64 or key_bits % 2 != 0:
        raise WeakKey(f"key_bits must be even and >= 64, got {key_bits}")
    if n is not None and n.bit_length() != key_bits:
        raise WeakKey(f"modulus has {n.bit_length()} bits, expected {key_bits}")


def keygen(key_bits: int, seed: int | None) -> KeyPair:
    """Generate an n of exactly ``key_bits`` bits from two equal-size primes."""
    _check_key_bits(key_bits)
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    p = _generate_prime(key_bits // 2, rng)
    q = _generate_prime(key_bits // 2, rng)
    while q == p:
        q = _generate_prime(key_bits // 2, rng)
    h_p, h_q, p_sq_inv = pow(-q, -1, p), pow(-p, -1, q), pow(p * p, -1, q * q)
    return KeyPair(PublicKey(n=p * q, key_bits=key_bits), p, q, h_p, h_q, p_sq_inv)


def _l_function(u: int, n: int) -> int:
    return (u - 1) // n


def encrypt(key: PublicKey | KeyPair, m: int, rng: random.Random | None = None) -> Ciphertext:
    """c = (1+n)^m * r^n mod n^2 for a fresh nonce r coprime to n. A key pair
    computes r^n by CRT; the ciphertext is the same for the same rng state."""
    pk = key.public if isinstance(key, KeyPair) else key
    if not (0 <= m < pk.n):
        raise PlaintextOutOfRange(f"plaintext must lie in [0, n), got {m}")
    rng = rng if rng is not None else random.SystemRandom()
    # gcd(r, n) == 1 is also what lets the key pair reduce the exponent of r^n
    while True:
        r = rng.randrange(1, pk.n)
        if math.gcd(r, pk.n) == 1:
            break
    n_sq = pk.n_squared
    r_n = key._nonce_power(r) if isinstance(key, KeyPair) else pow(r, pk.n, n_sq)
    value = (1 + pk.n * m) % n_sq * r_n % n_sq
    return Ciphertext(value=value, public=pk)


def decrypt(kp: KeyPair, c: Ciphertext) -> int:
    if c.public.n != kp.public.n:
        raise KeyMismatch("ciphertext was produced under a different key")
    p, q = kp.p, kp.q
    m_p = _l_function(pow(c.value, p - 1, p * p), p) * kp.h_p % p
    m_q = _l_function(pow(c.value, q - 1, q * q), q) * kp.h_q % q
    # p^-1 mod q is -h_q mod q
    return m_p + (m_p - m_q) * kp.h_q % q * p


def he_add(pk: PublicKey, a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Ciphertext of (m_a + m_b) mod n."""
    if a.public.n != pk.n or b.public.n != pk.n:
        raise KeyMismatch("operands are under different keys")
    return Ciphertext(value=a.value * b.value % pk.n_squared, public=pk)


def he_scalar_mul(pk: PublicKey, k: int, a: Ciphertext) -> Ciphertext:
    """Ciphertext of (k * m_a) mod n, for non-negative integer k."""
    if k < 0:
        raise ValueError(f"scalar must be non-negative, got {k}")
    if a.public.n != pk.n:
        raise KeyMismatch("operand is under a different key")
    return Ciphertext(value=pow(a.value, k, pk.n_squared), public=pk)


def encode_signed(v: int, n: int) -> int:
    """Map a signed integer with |v| < n/2 into [0, n); negatives wrap upward."""
    if 2 * abs(v) >= n:
        raise CapacityExceeded(f"|{v}| >= n/2, does not fit the plaintext space")
    return v % n


def decode_signed(m: int, n: int) -> int:
    """Inverse of :func:`encode_signed` on [0, n)."""
    if not (0 <= m < n):
        raise PlaintextOutOfRange(f"value must lie in [0, n), got {m}")
    return m - n if 2 * m >= n else m


# --- wire helpers: bare lowercase hex for non-negative key/ciphertext values ---


def int_to_hex(x: int) -> str:
    if x < 0:
        raise ValueError("only non-negative integers serialize as bare hex")
    return format(x, "x")


def hex_to_int(s: str) -> int:
    if not isinstance(s, str) or not re.fullmatch("[0-9a-f]+", s):
        raise ValueError(f"not a bare lowercase hex string: {s!r}")
    return int(s, 16)


def public_key_to_payload(pk: PublicKey) -> dict:
    return {"key_bits": pk.key_bits, "n": int_to_hex(pk.n)}


def public_key_from_payload(payload: dict) -> PublicKey:
    try:
        n, key_bits = hex_to_int(payload["n"]), int(payload["key_bits"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WeakKey(f"malformed public key: {exc!r}") from exc
    _check_key_bits(key_bits, n)
    return PublicKey(n=n, key_bits=key_bits)

