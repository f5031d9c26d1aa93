"""Paillier cryptosystem over Python big integers.

Additively homomorphic: multiplying two ciphertexts adds the plaintexts mod n,
and raising a ciphertext to an integer power multiplies its plaintext. Uses the
g = n+1 variant, so encryption needs no exponentiation by g.

The nonce is the fixed-base, short-exponent one of Damgard, Jurik and
Nielsen (IJIS 2010): keygen draws h = -x^2 mod n for a random x coprime to n,
and encryption multiplies by h_s^a mod n^2, with h_s = h^n and a fresh random
a of ceil(k/2) bits for a k-bit n. h_s^a is an n-th residue, as the textbook
r^n is, so every ciphertext is an ordinary Paillier ciphertext.

The key holder works modulo p^2 and q^2 and recombines by the Chinese
remainder theorem (Paillier, EUROCRYPT 1999, section 7). Decryption computes
m mod p = L_p(c^(p-1) mod p^2) * h_p mod p with L_p(u) = (u-1)/p and
h_p = (-q)^-1 mod p (the same for q), then m mod n. Encryption under a
:class:`KeyPair` raises h_s mod p^2 (and q^2) to a from a table of its powers,
one per w-bit window of a (Brickell, Gordon, McCurley and Wilson, EUROCRYPT
1992), built at the first encrypt; the ciphertext equals the one
:class:`PublicKey` encryption gives for the same rng state.

Prime search rejects a candidate with a prime factor below a few thousand by
one gcd with their product, and one of 512 bits or more that passes it by a
second gcd with the primes up to 2^15. It draws the same 40 Miller-Rabin
witnesses from the rng as the unsieved test would, so a seed gives the same
key either way, and tests as many as an error of at most 2^-100 needs
(_TESTED_ROUNDS).

A KeyPair remembers the plaintext of each ciphertext it made or decrypted
(``plaintexts``, emptied at PLAINTEXT_MEMO_BOUND entries; see aggregate). A
plaintext is a function of key and ciphertext, so the memo changes no output.

Key generation accepts a seed so experiment runs are reproducible; pass
``seed=None`` (and ``rng=None`` to :func:`encrypt`) for OS randomness. The
default 128-bit modulus matches the experimental setup here but is far below
modern security margins; raise ``key_bits`` for anything beyond simulation.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import compress

from .errors import KeyMismatch, PlaintextOutOfRange, WeakKey

_MILLER_RABIN_ROUNDS = 40
# (bits, rounds), largest first: a candidate of at least ``bits`` bits that passes
# ``rounds`` is composite with chance <= 2^-100, twice the average-case bound of Damgard,
# Landrock and Pomerance (Math. Comp. 1993), since its top two bits are set
_TESTED_ROUNDS = ((1024, 4), (512, 8))
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
# Plaintexts a KeyPair remembers before it forgets them all: at 2048 bits, a few MiB
PLAINTEXT_MEMO_BOUND = 4096
# Exponent bits per entry of the fixed-base table: 103 entries per prime at 1024 bits
_WINDOW_BITS = 5
# Bytes of a public key's fingerprint
FINGERPRINT_BYTES = 9


@dataclass(frozen=True)
class PublicKey:
    n: int
    key_bits: int
    # DJN's h, whose h^n is the nonce base; None in the key the server is
    # offered, since the server never encrypts. The same key with or without it.
    h: int | None = field(default=None, compare=False, repr=False)

    @cached_property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def nonce_bits(self) -> int:
        """Bits of the nonce exponent a: ceil(k/2) for a k-bit n, after DJN."""
        return -(-self.key_bits // 2)

    @cached_property
    def h_s(self) -> int:
        return pow(self.h, self.n, self.n_squared)

    @cached_property
    def fingerprint(self) -> bytes:
        """The key's name on the wire: the first bytes of sha256 over n."""
        digest = hashlib.sha256(self.n.to_bytes(byte_width(self.key_bits), "big")).digest()
        return digest[:FINGERPRINT_BYTES]


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    p: int
    q: int
    h_p: int  # (-q)^-1 mod p, which is L_p(g^(p-1) mod p^2)^-1 for g = n+1
    h_q: int  # (-p)^-1 mod q
    p_sq_inv: int  # (p^2)^-1 mod q^2
    # ciphertext value -> plaintext; pickled empty, and a forked TCP client inherits it as it stands
    plaintexts: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def key_bits(self) -> int:
        return self.public.key_bits

    def remember(self, c: Ciphertext, m: int) -> None:
        """Note that ``c``, under this key, decrypts to ``m``; a full memo is emptied first."""
        if len(self.plaintexts) >= PLAINTEXT_MEMO_BOUND:
            self.plaintexts.clear()
        self.plaintexts[c.value] = m

    def __getstate__(self) -> dict:
        unpickled = ("plaintexts", "_nonce_tables")
        return {k: v for k, v in self.__dict__.items() if k not in unpickled}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, plaintexts={})

    @cached_property
    def _nonce_tables(self) -> tuple[tuple[int, list[int]], ...]:
        """(p^2, powers of h_s mod p^2) and the same for q^2: h_s^(2^(w*i))
        for each w-bit window of the nonce exponent. Built at the first
        encrypt, as keygen is timed, and like the memo never pickled."""
        h, windows = self.public.h, -(-self.public.nonce_bits // _WINDOW_BITS)
        tables = []
        for prime, other in ((self.p, self.q), (self.q, self.p)):
            modulus = prime * prime
            # h^n = (h^other)^prime, and a^prime mod prime^2 depends on a mod prime
            powers = [pow(pow(h, other % (prime - 1), prime), prime, modulus)]
            for _ in range(windows - 1):
                powers.append(pow(powers[-1], 1 << _WINDOW_BITS, modulus))
            tables.append((modulus, powers))
        return tuple(tables)

    def nonce(self, a: int) -> int:
        """h_s^a mod n^2, by the fixed-base tables mod p^2 and q^2 and CRT."""
        (p_sq, p_powers), (q_sq, q_powers) = self._nonce_tables
        x_p, x_q = _fixed_base_pow(p_powers, a, p_sq), _fixed_base_pow(q_powers, a, q_sq)
        return x_p + (x_q - x_p) * self.p_sq_inv % q_sq * p_sq


@dataclass(frozen=True)
class Ciphertext:
    value: int
    public: PublicKey

    def __post_init__(self):
        if not (0 < self.value < self.public.n_squared):
            raise ValueError("ciphertext value out of range")


def _fixed_base_pow(powers: list[int], a: int, modulus: int) -> int:
    """base^a mod ``modulus`` from powers[i] = base^(2^(w*i)), for ``a`` below
    2^(w*len(powers)), by the method of Brickell, Gordon, McCurley and Wilson:
    for each digit d from 2^w - 1 down to 1, ``run`` multiplies in every power
    whose window of ``a`` holds d, and ``result`` takes ``run``, so a power
    enters ``result`` as many times as its digit says."""
    top = (1 << _WINDOW_BITS) - 1
    by_digit = [[] for _ in range(top + 1)]
    for power in powers:
        by_digit[a & top].append(power)
        a >>= _WINDOW_BITS
    result = run = 1
    for digit in range(top, 0, -1):
        for power in by_digit[digit]:
            run = run * power % modulus
        result = result * run % modulus
    return result


def _primes_below(bound: int) -> Iterator[int]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound, i)))
    return compress(range(bound), sieve)


# Product of the primes from 53 (the first after _SMALL_PRIMES) below _SIEVE_BOUND.
# A larger bound rejects more candidates per gcd, but the gcd's cost grows with
# the primorial and outweighs the saving at small key sizes.
_SIEVE_BOUND = 3000
_PRIMORIAL = math.prod(p for p in _primes_below(_SIEVE_BOUND) if p > _SMALL_PRIMES[-1])
# A second level for candidates of at least _DEEP_SIEVE_BITS bits: below that,
# its gcd costs more than the Miller-Rabin rounds it saves (512-bit primes: -6 ms a key)
_DEEP_SIEVE_BITS = 512


@cache
def _deep_primorial() -> int:
    """Product of the primes from _SIEVE_BOUND below 2^15, built at its first use."""
    return math.prod(p for p in _primes_below(1 << 15) if p >= _SIEVE_BOUND)


def _is_probable_prime(candidate: int, rng: random.Random, rounds: int = _MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin with ``rounds`` random witnesses after trial division.

    A candidate with a prime factor below _SIEVE_BOUND (below 2^15 from
    _DEEP_SIEVE_BITS bits on) is composite. For it a drawn witness ``a`` with
    a^(candidate-1) != 1 modulo those factors is not a Fermat liar, so the
    Miller-Rabin round would fail: return at once. Only when ``a`` might be a
    liar does the full round run. The result and the witnesses drawn from
    ``rng`` are therefore those of plain Miller-Rabin, and seeded key
    generation gives the same primes with or without the sieve.
    Witnesses past the _TESTED_ROUNDS count of the candidate's size are drawn,
    not tested: the stream differs only for a composite that passes the rest.
    """
    if candidate < 2:
        return False
    for p in _SMALL_PRIMES:
        if candidate % p == 0:
            return candidate == p
    small_factors = math.gcd(candidate, _PRIMORIAL) if candidate > _SIEVE_BOUND else 1
    bits = candidate.bit_length()
    if small_factors == 1 and bits >= _DEEP_SIEVE_BITS:
        small_factors = math.gcd(candidate, _deep_primorial())
    d, s = candidate - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    tested = next((t for size, t in _TESTED_ROUNDS if bits >= size), rounds)
    for i in range(rounds):
        a = rng.randrange(2, candidate - 1)
        if i >= tested:
            continue
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


def _check_key_bits(key_bits: int) -> None:
    if key_bits < 64 or key_bits % 2 != 0:
        raise WeakKey(f"key_bits must be even and >= 64, got {key_bits}")


def keygen(key_bits: int, seed: int | None) -> KeyPair:
    """Generate an n of exactly ``key_bits`` bits from two equal-size primes,
    then DJN's h = -x^2 mod n; drawing h last keeps each seed's primes."""
    _check_key_bits(key_bits)
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    p = _generate_prime(key_bits // 2, rng)
    q = _generate_prime(key_bits // 2, rng)
    while q == p:
        q = _generate_prime(key_bits // 2, rng)
    n, x = p * q, 0
    while x % p == 0 or x % q == 0:  # x coprime to n
        x = rng.randrange(1, n)
    h_p, h_q, p_sq_inv = pow(-q, -1, p), pow(-p, -1, q), pow(p * p, -1, q * q)
    return KeyPair(PublicKey(n, key_bits, h=-x * x % n), p, q, h_p, h_q, p_sq_inv)


def encrypt(key: PublicKey | KeyPair, m: int, rng: random.Random | None = None) -> Ciphertext:
    """c = (1+n)^m * h_s^a mod n^2 for a fresh nonce_bits-bit exponent a. A
    key pair computes h_s^a by its tables and CRT; the ciphertext is the same
    for the same rng state. The offered public key, without h, is a WeakKey."""
    pk = key.public if isinstance(key, KeyPair) else key
    if not (0 <= m < pk.n):
        raise PlaintextOutOfRange(f"plaintext must lie in [0, n), got {m}")
    if pk.h is None:
        raise WeakKey("the offered public key carries no nonce base, so it cannot encrypt")
    a = (rng if rng is not None else random.SystemRandom()).getrandbits(pk.nonce_bits)
    n_sq = pk.n_squared
    nonce = key.nonce(a) if isinstance(key, KeyPair) else pow(pk.h_s, a, n_sq)
    return Ciphertext(value=(1 + pk.n * m) % n_sq * nonce % n_sq, public=pk)


def decrypt(kp: KeyPair, c: Ciphertext) -> int:
    if c.public.n != kp.public.n:
        raise KeyMismatch("ciphertext was produced under a different key")
    p, q = kp.p, kp.q
    # L_p(u) = (u - 1) / p, and the same for q
    m_p = (pow(c.value, p - 1, p * p) - 1) // p * kp.h_p % p
    m_q = (pow(c.value, q - 1, q * q) - 1) // q * kp.h_q % q
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
        raise PlaintextOutOfRange(f"|{v}| >= n/2, does not fit the plaintext space")
    return v % n


def decode_signed(m: int, n: int) -> int:
    """Inverse of :func:`encode_signed` on [0, n)."""
    if not (0 <= m < n):
        raise PlaintextOutOfRange(f"value must lie in [0, n), got {m}")
    return m - n if 2 * m >= n else m


# --- wire codec: the offered modulus as fixed-width bytes ---


def byte_width(bits: int) -> int:
    """Bytes that hold any integer below 2**bits."""
    return -(-bits // 8)


def public_key_to_payload(pk: PublicKey) -> dict:
    """The modulus alone, as key_bits/8 big-endian bytes: every party takes
    the key size from its config."""
    return {"n": pk.n.to_bytes(byte_width(pk.key_bits), "big")}


def public_key_from_payload(payload: dict, key_bits: int) -> PublicKey:
    """The offered key, without the nonce base h, since the server never
    encrypts: n of a weak size is a WeakKey, of another size a KeyMismatch."""
    n = int.from_bytes(payload["n"], "big")
    _check_key_bits(n.bit_length())
    if n.bit_length() != key_bits:
        raise KeyMismatch(f"offered a {n.bit_length()}-bit key, expected {key_bits}")
    return PublicKey(n, key_bits)
