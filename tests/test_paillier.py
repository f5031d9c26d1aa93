import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedboost import aggregate as agg
from fedboost import paillier
from fedboost import quantize as qz
from fedboost.errors import CapacityExceeded, KeyMismatch, PlaintextOutOfRange, WeakKey
from fedboost.protocol import derive_seed

_TRIAL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def reference_is_probable_prime(candidate: int, rng: random.Random, rounds: int = 40) -> bool:
    """Trial division by the primes below 50, then Miller-Rabin with ``rounds``
    witnesses drawn from ``rng``: the prime test before the sieve, frozen."""
    if candidate < 2:
        return False
    for p in _TRIAL_PRIMES:
        if candidate % p == 0:
            return candidate == p
    d, s = candidate - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 1)
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


def reference_keygen(key_bits: int, seed: int) -> tuple[int, int]:
    """(p, q) as key generation chose them before the sieve."""
    rng = random.Random(seed)

    def prime(bits: int) -> int:
        while True:
            candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
            if reference_is_probable_prime(candidate, rng):
                return candidate

    p = prime(key_bits // 2)
    q = prime(key_bits // 2)
    while q == p:
        q = prime(key_bits // 2)
    return p, q


def reference_decrypt(kp: paillier.KeyPair, c: paillier.Ciphertext) -> int:
    """Textbook decryption L(c^lambda mod n^2) * mu mod n, with g = n+1."""
    n, n_sq = kp.public.n, kp.public.n_squared
    lam = math.lcm(kp.p - 1, kp.q - 1)
    mu = pow((pow(n + 1, lam, n_sq) - 1) // n, -1, n)
    return (pow(c.value, lam, n_sq) - 1) // n * mu % n


@pytest.fixture(scope="module")
def key1024():
    return paillier.keygen(1024, seed=2024)


@pytest.fixture(scope="module")
def key2048():
    return paillier.keygen(2048, seed=derive_seed(1, "keygen"))


class TestKeygen:
    def test_modulus_has_exact_bit_length(self, key128):
        assert key128.public.n.bit_length() == 128
        assert 2**127 <= key128.public.n < 2**128

    def test_deterministic_per_seed(self):
        a = paillier.keygen(96, seed=5)
        b = paillier.keygen(96, seed=5)
        assert a == b

    def test_seeds_differ(self):
        assert paillier.keygen(96, seed=5).public.n != paillier.keygen(96, seed=6).public.n

    def test_primes_distinct(self, key128):
        assert key128.p != key128.q
        assert key128.p * key128.q == key128.public.n

    def test_weak_key_rejected(self):
        with pytest.raises(WeakKey):
            paillier.keygen(32, seed=1)
        with pytest.raises(WeakKey):
            paillier.keygen(129, seed=1)

    def test_128_bit_keygen_under_one_second(self):
        start = time.perf_counter()
        paillier.keygen(128, seed=777)
        assert time.perf_counter() - start < 1.0


class TestSieveKeepsKeys:
    """Sieving prime candidates draws the witnesses plain Miller-Rabin draws,
    so every seed gives the key it gave before the sieve."""

    def test_primorial_holds_the_primes_from_53_below_the_bound(self):
        primes = [
            p for p in range(53, paillier._SIEVE_BOUND) if all(p % d for d in range(2, math.isqrt(p) + 1))
        ]
        assert paillier._PRIMORIAL == math.prod(primes)

    @settings(max_examples=300, deadline=None)
    @given(half=st.integers(min_value=1, max_value=2**80), seed=st.integers(min_value=0, max_value=2**32))
    def test_verdict_and_rng_stream_match_reference(self, half, seed):
        candidate = 2 * half + 1
        sieved, plain = random.Random(seed), random.Random(seed)
        assert paillier._is_probable_prime(candidate, sieved) == reference_is_probable_prime(
            candidate, plain
        )
        assert sieved.getstate() == plain.getstate()

    def test_strong_liars_of_a_sieved_composite_draw_the_same_witnesses(self):
        # a Carmichael number: every witness coprime to it passes the Fermat
        # check, and about 13 % are strong liars that make Miller-Rabin draw again
        n = 211 * 421 * 631
        redrawn = 0
        for seed in range(200):
            sieved, plain = random.Random(seed), random.Random(seed)
            assert not paillier._is_probable_prime(n, sieved)
            assert not reference_is_probable_prime(n, plain)
            assert sieved.getstate() == plain.getstate()
            one_draw = random.Random(seed)
            one_draw.randrange(2, n - 1)
            redrawn += plain.getstate() != one_draw.getstate()
        assert redrawn > 0

    @settings(max_examples=40, deadline=None)
    @given(
        key_bits=st.sampled_from([64, 96, 128, 192, 256]),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_small_keys_match_reference(self, key_bits, seed):
        kp = paillier.keygen(key_bits, seed)
        assert (kp.p, kp.q) == reference_keygen(key_bits, seed)
        # what keygen's primes meet by construction, for every seed
        assert kp.p != kp.q and kp.public.n.bit_length() == key_bits

    @pytest.mark.parametrize("master_seed", range(8))
    def test_1024_bit_keys_match_reference(self, master_seed):
        seed = derive_seed(master_seed, "keygen")
        kp = paillier.keygen(1024, seed)
        assert (kp.p, kp.q) == reference_keygen(1024, seed)

    def test_2048_bit_key_matches_reference(self, key2048):
        assert (key2048.p, key2048.q) == reference_keygen(2048, derive_seed(1, "keygen"))


class TestLiftedNoncePower:
    """The key holder's r^n mod n^2, lifted from mod p and mod q, equals the
    full exponentiation."""

    @settings(max_examples=100, deadline=None)
    @given(
        key_bits=st.sampled_from([64, 96, 128]),
        key_seed=st.integers(min_value=0, max_value=50),
        data=st.data(),
    )
    def test_matches_full_exponentiation(self, key_bits, key_seed, data):
        kp = paillier.keygen(key_bits, seed=key_seed)
        n = kp.public.n
        r = data.draw(st.integers(min_value=1, max_value=n - 1).filter(lambda r: math.gcd(r, n) == 1))
        assert kp._nonce_power(r) == pow(r, n, n * n)

    @pytest.mark.parametrize("key_name", ["key1024", "key2048"])
    def test_real_key_sizes(self, key_name, request):
        kp = request.getfixturevalue(key_name)
        n = kp.public.n
        rng = random.Random(11)
        cases = [1, 2, n - 1, kp.p + 1, kp.q - 1] + [rng.randrange(1, n) for _ in range(3)]
        for r in cases:
            assert kp._nonce_power(r) == pow(r, n, n * n)


class TestEncryptDecrypt:
    def test_zero_roundtrip(self, key128):
        assert paillier.decrypt(key128, paillier.encrypt(key128.public, 0)) == 0

    def test_random_roundtrips(self, key128):
        rng = random.Random(42)
        for _ in range(200):
            m = rng.randrange(key128.public.n)
            assert paillier.decrypt(key128, paillier.encrypt(key128.public, m, rng)) == m

    def test_same_plaintext_distinct_ciphertexts(self, key128):
        rng = random.Random(1)
        a = paillier.encrypt(key128.public, 12345, rng)
        b = paillier.encrypt(key128.public, 12345, rng)
        assert a.value != b.value
        assert paillier.decrypt(key128, a) == paillier.decrypt(key128, b) == 12345

    def test_seeded_nonces_reproducible(self, key128):
        a = paillier.encrypt(key128.public, 7, random.Random(3))
        b = paillier.encrypt(key128.public, 7, random.Random(3))
        assert a.value == b.value

    def test_out_of_range_rejected(self, key128):
        with pytest.raises(PlaintextOutOfRange):
            paillier.encrypt(key128.public, -1)
        with pytest.raises(PlaintextOutOfRange):
            paillier.encrypt(key128.public, key128.public.n)

    def test_wrong_key_rejected(self, key128, key64):
        c = paillier.encrypt(key64.public, 5)
        with pytest.raises(KeyMismatch):
            paillier.decrypt(key128, c)


class TestCrtAgainstReference:
    """CRT decryption and key-holder encryption match the textbook forms."""

    @settings(max_examples=60, deadline=None)
    @given(
        key_bits=st.sampled_from([64, 96, 128]),
        key_seed=st.integers(min_value=0, max_value=50),
        data=st.data(),
    )
    def test_decrypt_matches_reference(self, key_bits, key_seed, data):
        kp = paillier.keygen(key_bits, seed=key_seed)
        m = data.draw(st.integers(min_value=0, max_value=kp.public.n - 1))
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
        c = paillier.encrypt(kp.public, m, rng)
        assert paillier.decrypt(kp, c) == reference_decrypt(kp, c) == m

    @settings(max_examples=60, deadline=None)
    @given(
        key_bits=st.sampled_from([64, 96, 128]),
        key_seed=st.integers(min_value=0, max_value=50),
        data=st.data(),
    )
    def test_keypair_encrypt_equals_public_encrypt(self, key_bits, key_seed, data):
        kp = paillier.keygen(key_bits, seed=key_seed)
        m = data.draw(st.integers(min_value=0, max_value=kp.public.n - 1))
        nonce_seed = data.draw(st.integers(min_value=0, max_value=2**32))
        via_keypair = paillier.encrypt(kp, m, random.Random(nonce_seed))
        via_public = paillier.encrypt(kp.public, m, random.Random(nonce_seed))
        assert via_keypair.value == via_public.value
        assert via_keypair.public == kp.public

    def test_fixed_1024_bit_key(self, key1024):
        rng = random.Random(7)
        for m in (0, 1, key1024.public.n - 1, rng.randrange(key1024.public.n)):
            nonce_seed = rng.getrandbits(32)
            c = paillier.encrypt(key1024, m, random.Random(nonce_seed))
            assert c.value == paillier.encrypt(key1024.public, m, random.Random(nonce_seed)).value
            assert paillier.decrypt(key1024, c) == reference_decrypt(key1024, c) == m

    @settings(max_examples=20, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=12),
        nonce_seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_encrypt_gradient_same_for_keypair_and_public_key(self, key128, values, nonce_seed):
        q = qz.QuantizedGradient(values=values, config=qz.QuantConfig(scale_exponent=12, pieces=100))
        a = agg.encrypt_gradient(key128, q, random.Random(nonce_seed))
        b = agg.encrypt_gradient(key128.public, q, random.Random(nonce_seed))
        assert [c.value for c in a.ciphertexts] == [c.value for c in b.ciphertexts]
        assert a.config == b.config
        assert agg.decrypt_gradient(key128, a).values == values


class TestHomomorphism:
    def test_add_small(self, key128):
        pk = key128.public
        c = paillier.he_add(pk, paillier.encrypt(pk, 2), paillier.encrypt(pk, 3))
        assert paillier.decrypt(key128, c) == 5

    def test_add_identity(self, key128):
        pk = key128.public
        x = paillier.encrypt(pk, 987654321)
        c = paillier.he_add(pk, x, paillier.encrypt(pk, 0))
        assert paillier.decrypt(key128, c) == 987654321

    def test_add_wraps_modulo_n(self, key128):
        pk = key128.public
        c = paillier.he_add(pk, paillier.encrypt(pk, pk.n - 1), paillier.encrypt(pk, 2))
        assert paillier.decrypt(key128, c) == 1

    def test_add_key_mismatch(self, key128, key64):
        with pytest.raises(KeyMismatch):
            paillier.he_add(
                key128.public,
                paillier.encrypt(key128.public, 1),
                paillier.encrypt(key64.public, 1),
            )

    def test_scalar_mul_cases(self, key128):
        pk = key128.public
        c3 = paillier.encrypt(pk, 3)
        assert paillier.decrypt(key128, paillier.he_scalar_mul(pk, 1, c3)) == 3
        assert paillier.decrypt(key128, paillier.he_scalar_mul(pk, 0, c3)) == 0
        assert paillier.decrypt(key128, paillier.he_scalar_mul(pk, 4, c3)) == 12

    def test_negative_scalar_rejected(self, key128):
        c = paillier.encrypt(key128.public, 3)
        with pytest.raises(ValueError):
            paillier.he_scalar_mul(key128.public, -1, c)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_additive_property(self, key128, data):
        pk = key128.public
        m1 = data.draw(st.integers(min_value=0, max_value=pk.n - 1))
        m2 = data.draw(st.integers(min_value=0, max_value=pk.n - 1))
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
        c = paillier.he_add(pk, paillier.encrypt(pk, m1, rng), paillier.encrypt(pk, m2, rng))
        assert paillier.decrypt(key128, c) == (m1 + m2) % pk.n

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scalar_property(self, key128, data):
        pk = key128.public
        m = data.draw(st.integers(min_value=0, max_value=pk.n - 1))
        k = data.draw(st.integers(min_value=0, max_value=10**9))
        c = paillier.he_scalar_mul(pk, k, paillier.encrypt(pk, m))
        assert paillier.decrypt(key128, c) == k * m % pk.n


class TestSignedEncoding:
    def test_minus_one(self, key128):
        n = key128.public.n
        assert paillier.encode_signed(-1, n) == n - 1
        assert paillier.decode_signed(n - 1, n) == -1

    def test_zero(self, key128):
        n = key128.public.n
        assert paillier.encode_signed(0, n) == 0
        assert paillier.decode_signed(0, n) == 0

    def test_homomorphic_signed_sum(self, key128):
        pk = key128.public
        a = paillier.encrypt(pk, paillier.encode_signed(-5, pk.n))
        b = paillier.encrypt(pk, paillier.encode_signed(3, pk.n))
        total = paillier.decrypt(key128, paillier.he_add(pk, a, b))
        assert paillier.decode_signed(total, pk.n) == -2

    def test_boundary_values(self, key128):
        n = key128.public.n
        half = n // 2  # n is odd, so |v| <= n//2 fits
        assert paillier.decode_signed(paillier.encode_signed(half, n), n) == half
        assert paillier.decode_signed(paillier.encode_signed(-half, n), n) == -half
        with pytest.raises(CapacityExceeded):
            paillier.encode_signed(half + 1, n)
        with pytest.raises(CapacityExceeded):
            paillier.encode_signed(-half - 1, n)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bijection_on_full_range(self, key128, data):
        n = key128.public.n
        v = data.draw(st.integers(min_value=-(n // 2), max_value=n // 2))
        encoded = paillier.encode_signed(v, n)
        assert 0 <= encoded < n
        assert paillier.decode_signed(encoded, n) == v


class TestSerialization:
    def test_hex_roundtrip(self):
        assert paillier.hex_to_int(paillier.int_to_hex(0xDEADBEEF)) == 0xDEADBEEF
        assert paillier.int_to_hex(255) == "ff"

    def test_hex_rejects_prefixes_and_uppercase(self):
        for bad in ("+ff", "-ff", "FF", " ff", "", "0xff", "f_f", "ff\n", 255, None):
            with pytest.raises(ValueError):
                paillier.hex_to_int(bad)

    def test_public_key_payload_roundtrip(self, key128):
        payload = paillier.public_key_to_payload(key128.public)
        assert payload["n"] == format(key128.public.n, "x")
        assert paillier.public_key_from_payload(payload) == key128.public


class TestMalformedKeyMaterial:
    @pytest.mark.parametrize(
        "payload",
        [{"key_bits": 128}, {"key_bits": 128, "n": "XY"}, {"key_bits": "big", "n": "ff"}, {"n": "ff"}],
    )
    def test_unparseable_public_key_is_weak_key(self, payload):
        with pytest.raises(WeakKey, match="malformed public key"):
            paillier.public_key_from_payload(payload)

    def test_public_modulus_size_must_match_key_bits(self, key128):
        payload = paillier.public_key_to_payload(key128.public)
        payload["key_bits"] = 256
        with pytest.raises(WeakKey, match="bits"):
            paillier.public_key_from_payload(payload)
