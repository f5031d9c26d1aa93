import dataclasses
import hashlib
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedboost import aggregate as agg
from fedboost import paillier
from fedboost import quantize as qz
from fedboost.errors import KeyMismatch, PlaintextOutOfRange, WeakKey
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

    def test_second_level_holds_the_primes_from_the_bound_below_2_15(self):
        primes = [
            p for p in range(paillier._SIEVE_BOUND, 1 << 15) if all(p % d for d in range(2, math.isqrt(p) + 1))
        ]
        assert paillier._deep_primorial() == math.prod(primes)

    @pytest.mark.parametrize("factor", [3001, 3011, 9973, 32749])
    def test_second_level_keeps_verdict_and_rng_stream(self, factor):
        # a 512-bit composite whose prime factors only the second level holds
        cofactor = paillier._generate_prime(512 - factor.bit_length() + 1, random.Random(factor))
        candidate = factor * cofactor
        assert candidate.bit_length() >= paillier._DEEP_SIEVE_BITS
        assert math.gcd(candidate, paillier._PRIMORIAL) == 1
        for seed in range(20):
            sieved, plain = random.Random(seed), random.Random(seed)
            assert not paillier._is_probable_prime(candidate, sieved)
            assert not reference_is_probable_prime(candidate, plain)
            assert sieved.getstate() == plain.getstate()

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


def dlp_log2_error(k: int, t: int) -> float:
    """log2 of the Damgard-Landrock-Pomerance bound (Math. Comp. 1993) on the
    chance that a random odd k-bit integer that passes t Miller-Rabin rounds
    is composite, minimised over M as FIPS 186-4 Appendix F.1 computes it."""

    def log2_sum(a: float, b: float) -> float:
        return max(a, b) + math.log2(1 + 2 ** -abs(a - b))

    best = math.inf
    for big_m in range(3, int(2 * math.sqrt(k - 1) - 1) + 1):
        inner = math.log2(
            sum(
                2 ** (m - (m - 1) * t - j - (k - 1) / j)
                for m in range(3, big_m + 1)
                for j in range(2, m + 1)
            )
        )
        tail = log2_sum(k - 2 - big_m * t, math.log2(8 * (math.pi**2 - 6) / 3) + k - 2 + inner)
        best = min(best, math.log2(2.00743 * math.log(2) * k) - k + tail)
    return best


class _Witnesses:
    """An rng that draws ``n - 1``, a strong liar for every odd n, ``liars``
    times and then 2, and counts its draws."""

    def __init__(self, n: int, liars: int):
        self.n, self.liars, self.draws = n, liars, 0

    def randrange(self, start: int, stop: int) -> int:
        self.draws += 1
        return self.n - 1 if self.draws <= self.liars else 2


class TestTestedRounds:
    """Each candidate draws all 40 witnesses but tests only as many as the
    average-case error bound needs for its size, so seeded keys stay the same."""

    def test_the_tested_rounds_meet_the_error_bound(self):
        assert paillier._TESTED_ROUNDS == ((1024, 4), (512, 8))
        for bits, rounds in paillier._TESTED_ROUNDS:
            # a candidate has its top two bits set, so it is drawn from half
            # the odd integers of its size: at most twice the bound
            assert 1 + dlp_log2_error(bits, rounds) <= -100
            assert 1 + dlp_log2_error(bits, rounds - 1) > -100
        # the bound falls with the size, so a size's rounds hold above it
        assert dlp_log2_error(768, 8) < dlp_log2_error(512, 8)

    @pytest.mark.parametrize(
        "bits, tested", [(256, 40), (510, 40), (512, 8), (768, 8), (1022, 8), (1024, 4)]
    )
    def test_draws_every_witness_and_tests_the_first_few(self, bits, tested):
        composite = paillier.keygen(bits, seed=3).public.n
        fooled = _Witnesses(composite, tested)
        assert paillier._is_probable_prime(composite, fooled) and fooled.draws == 40
        caught = _Witnesses(composite, tested - 1)
        assert not paillier._is_probable_prime(composite, caught) and caught.draws == tested

    @pytest.mark.parametrize(
        "key_bits, seeds", [(512, range(16)), (1024, range(16)), (2048, range(4))]
    )
    def test_every_accepted_prime_passes_40_rounds(self, monkeypatch, key_bits, seeds):
        accepted = []
        is_probable_prime = paillier._is_probable_prime

        def recorded(candidate, rng):
            verdict = is_probable_prime(candidate, rng)
            if verdict:
                accepted.append(candidate)
            return verdict

        monkeypatch.setattr(paillier, "_is_probable_prime", recorded)
        for seed in seeds:
            paillier.keygen(key_bits, derive_seed(seed, "keygen"))
        assert len(accepted) >= 2 * len(seeds)
        for prime in accepted:
            assert reference_is_probable_prime(prime, random.Random(prime), 40)


# (key_bits, seed) -> (p, q) as keygen chose them before it drew the nonce base h
PINNED_PRIMES = {
    (64, 0): (0xD82C07CD, 0xE9BB17BD),
    (128, 1234): (0xDEC4AC467888FA7B, 0xE4357C976ECA2BA1),
    (256, 8): (0xE9D7AE8644D3123614FC9A3DD693CFE3, 0xFC08893309E07562AB948EA8A0F18995),
}
# the same at real sizes: sha256 of "<p hex>:<q hex>", first 32 hex digits
PINNED_PRIME_DIGESTS = {
    "key1024": "eef61a3e66ba51b0700581741e998cb5",
    "key2048": "89359eb6288cf0c133e0cc2a553b2d33",
}


def _prime_digest(kp: paillier.KeyPair) -> str:
    return hashlib.sha256(f"{kp.p:x}:{kp.q:x}".encode()).hexdigest()[:32]


class TestFixedBaseNonce:
    """The key holder's nonce h_s^a mod n^2, from fixed-base tables mod p^2
    and q^2, equals the full exponentiation; h comes after the primes, so a
    seed keeps its key, and the tables are built at the first encrypt."""

    @settings(max_examples=100, deadline=None)
    @given(
        key_bits=st.sampled_from([64, 96, 128]),
        key_seed=st.integers(min_value=0, max_value=50),
        data=st.data(),
    )
    def test_matches_full_exponentiation(self, key_bits, key_seed, data):
        kp = paillier.keygen(key_bits, seed=key_seed)
        n, bits = kp.public.n, kp.public.nonce_bits
        a = data.draw(st.integers(min_value=0, max_value=2**bits - 1))
        assert kp.nonce(a) == pow(pow(kp.public.h, n, n * n), a, n * n) == pow(kp.public.h_s, a, n * n)

    @pytest.mark.parametrize("key_name", ["key1024", "key2048"])
    def test_real_key_sizes(self, key_name, request):
        kp = request.getfixturevalue(key_name)
        n, bits = kp.public.n, kp.public.nonce_bits
        rng = random.Random(11)
        # every window empty, full or alone, and a few random exponents
        cases = [0, 1, 2**bits - 1, 2 ** (bits - 1), 31 << 5, 2 ** (bits - 5)]
        for a in cases + [rng.getrandbits(bits) for _ in range(3)]:
            assert kp.nonce(a) == pow(kp.public.h_s, a, n * n)
        # one power per 5-bit window and prime: well under 1 MiB at 2048 bits
        tables = [powers for _modulus, powers in kp._nonce_tables]
        assert [len(powers) for powers in tables] == [-(-bits // 5)] * 2
        assert sum(sys.getsizeof(x) for powers in tables for x in powers) < 2**18

    @settings(max_examples=30, deadline=None)
    @given(key_bits=st.sampled_from([64, 128, 256]), a=st.integers(min_value=0, max_value=2**128 - 1))
    def test_the_nonce_is_an_encryption_of_zero(self, key_bits, a):
        """h_s^a is an n-th residue, so a ciphertext stays an ordinary Paillier ciphertext."""
        kp = paillier.keygen(key_bits, seed=key_bits)
        a %= 2**kp.public.nonce_bits
        assert paillier.decrypt(kp, paillier.Ciphertext(kp.nonce(a), kp.public)) == 0

    @pytest.mark.parametrize("key_bits, seed", sorted(PINNED_PRIMES))
    def test_keygen_keeps_each_seeds_primes(self, key_bits, seed):
        kp = paillier.keygen(key_bits, seed)
        assert (kp.p, kp.q) == PINNED_PRIMES[key_bits, seed]
        assert math.gcd(kp.public.h, kp.public.n) == 1

    @pytest.mark.parametrize("key_name", sorted(PINNED_PRIME_DIGESTS))
    def test_keygen_keeps_the_primes_of_real_key_sizes(self, key_name, request):
        assert _prime_digest(request.getfixturevalue(key_name)) == PINNED_PRIME_DIGESTS[key_name]

    @pytest.mark.parametrize("key_bits", [64, 128, 1024])
    def test_encrypt_draws_an_exponent_of_half_the_key_bits(self, key_bits):
        kp = paillier.keygen(key_bits, seed=3)
        n, n_sq = kp.public.n, kp.public.n_squared
        assert kp.public.nonce_bits == key_bits // 2
        a = random.Random(5).getrandbits(key_bits // 2)
        expected = (1 + 7 * n) * pow(kp.public.h_s, a, n_sq) % n_sq
        assert paillier.encrypt(kp, 7, random.Random(5)).value == expected
        assert paillier.encrypt(kp.public, 7, random.Random(5)).value == expected

    def test_tables_are_built_at_the_first_encrypt(self):
        kp = paillier.keygen(128, seed=6)
        assert "_nonce_tables" not in kp.__dict__
        paillier.encrypt(kp, 1, random.Random(0))
        assert "_nonce_tables" in kp.__dict__

    def test_a_built_table_is_not_compared_or_shown(self):
        kp = paillier.keygen(128, seed=6)
        fresh = dataclasses.replace(kp)  # the same key, no table built
        c = paillier.encrypt(kp, 9, random.Random(1))
        assert "_nonce_tables" in kp.__dict__ and "_nonce_tables" not in fresh.__dict__
        assert kp == fresh and hash(kp) == hash(fresh) and repr(kp) == repr(fresh)
        assert fresh.public.h == kp.public.h
        assert paillier.encrypt(fresh, 9, random.Random(1)) == c

    def test_the_offered_public_key_cannot_encrypt(self, key128):
        offered = paillier.public_key_from_payload(paillier.public_key_to_payload(key128.public), 128)
        assert offered.h is None and offered == key128.public
        with pytest.raises(WeakKey, match="no nonce base"):
            paillier.encrypt(offered, 1, random.Random(0))


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


def _fill_memo(kp: paillier.KeyPair, count: int) -> list[int]:
    """Remember ``count`` ciphertext values with made-up plaintexts; the
    memo's size after each."""
    sizes = []
    for value in range(1, count + 1):
        kp.remember(paillier.Ciphertext(value, kp.public), value % kp.public.n)
        sizes.append(len(kp.plaintexts))
    return sizes


class TestPlaintextMemo:
    """A key pair remembers the plaintexts of the ciphertexts it made or
    decrypted, and decrypt_gradient reads them back."""

    @settings(max_examples=10, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=-(2**100), max_value=2**100), min_size=1, max_size=40),
        key_bits=st.sampled_from([128, 256, 512]),
    )
    def test_remembered_plaintexts_are_the_decrypted_ones(self, values, key_bits):
        kp = paillier.keygen(key_bits, seed=key_bits)
        q = qz.QuantizedGradient(values=values, config=qz.QuantConfig())
        eg = agg.encrypt_gradient(kp, q, random.Random(0))
        assert {c.value: paillier.decrypt(kp, c) for c in eg.ciphertexts} == kp.plaintexts
        assert agg.decrypt_gradient(kp, eg).values == values

    def test_each_ciphertext_is_decrypted_once(self, monkeypatch):
        kp = paillier.keygen(256, seed=5)
        q = qz.QuantizedGradient(values=list(range(-21, 21)), config=qz.QuantConfig())
        eg = agg.encrypt_gradient(kp.public, q, random.Random(0))
        assert kp.plaintexts == {}
        decrypted = []
        decrypt = paillier.decrypt
        monkeypatch.setattr(paillier, "decrypt", lambda k, c: decrypted.append(c.value) or decrypt(k, c))
        for _ in range(3):
            assert agg.decrypt_gradient(kp, eg).values == q.values
        assert decrypted == [c.value for c in eg.ciphertexts]

    def test_another_key_is_refused_whatever_the_memo_holds(self):
        kp, other = paillier.keygen(128, seed=3), paillier.keygen(256, seed=3)
        q = qz.QuantizedGradient(values=[5], config=qz.QuantConfig())
        [mine] = agg.encrypt_gradient(kp, q, random.Random(0)).ciphertexts
        assert mine.value in kp.plaintexts
        # the same value under another key, which the memo must not answer for
        foreign = agg.EncryptedGradient([paillier.Ciphertext(mine.value, other.public)], q.config, 1)
        with pytest.raises(KeyMismatch, match="different key"):
            agg.decrypt_gradient(kp, foreign)

    def test_the_memo_never_outgrows_its_bound(self):
        kp = paillier.keygen(128, seed=4)
        bound = paillier.PLAINTEXT_MEMO_BOUND
        sizes = _fill_memo(kp, 2 * bound + 3)
        assert max(sizes) == bound
        # a full memo is emptied before the next entry
        assert sizes[bound - 1 : bound + 1] == [bound, 1] and sizes[-1] == 3

    def test_a_full_memo_is_not_compared_or_shown(self):
        kp = paillier.keygen(128, seed=6)
        fresh = dataclasses.replace(kp)  # the same key, its memo empty
        _fill_memo(kp, paillier.PLAINTEXT_MEMO_BOUND)
        assert len(kp.plaintexts) == paillier.PLAINTEXT_MEMO_BOUND and fresh.plaintexts == {}
        assert kp == fresh and hash(kp) == hash(fresh) and repr(kp) == repr(fresh)
        _fill_memo(fresh, 1)
        assert fresh.plaintexts == {1: 1}


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
        with pytest.raises(PlaintextOutOfRange, match=r">= n/2, does not fit the plaintext space$"):
            paillier.encode_signed(half + 1, n)
        with pytest.raises(PlaintextOutOfRange, match=r">= n/2, does not fit the plaintext space$"):
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
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_modulus_roundtrip_at_every_size(self, data):
        key_bits = 2 * data.draw(st.integers(32, 1100))
        n = data.draw(st.integers(2 ** (key_bits - 1), 2**key_bits - 1))
        payload = paillier.public_key_to_payload(paillier.PublicKey(n, key_bits))
        assert payload == {"n": n.to_bytes(paillier.byte_width(key_bits), "big")}
        assert paillier.public_key_from_payload(payload, key_bits) == paillier.PublicKey(n, key_bits)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_modulus_bytes_are_a_key_or_refused_by_size(self, data):
        """The frame gives n its key_bits/8 bytes; their bit length names the
        offered size, which must be the configured one and no weak one."""
        key_bits = 2 * data.draw(st.integers(32, 300))
        raw = data.draw(st.binary(min_size=paillier.byte_width(key_bits), max_size=paillier.byte_width(key_bits)))
        size = int.from_bytes(raw, "big").bit_length()
        if size < 64 or size % 2:
            with pytest.raises(WeakKey, match=f"got {size}$"):
                paillier.public_key_from_payload({"n": raw}, key_bits)
        elif size != key_bits:
            with pytest.raises(KeyMismatch, match=f"^offered a {size}-bit key, expected {key_bits}$"):
                paillier.public_key_from_payload({"n": raw}, key_bits)
        else:
            assert paillier.public_key_from_payload({"n": raw}, key_bits).n == int.from_bytes(raw, "big")

    def test_widths_of_a_1024_bit_key(self):
        assert paillier.byte_width(1024) == 128 and paillier.byte_width(2048) == 256
        # a size that is not a whole number of bytes rounds up
        assert paillier.byte_width(2 * 66) == 17

    def test_public_key_payload_roundtrip(self, key128):
        payload = paillier.public_key_to_payload(key128.public)
        assert payload == {"n": key128.public.n.to_bytes(16, "big")}
        assert paillier.public_key_from_payload(payload, 128) == key128.public

    def test_fingerprint_names_the_modulus(self, key128, key64):
        digest = hashlib.sha256(key128.public.n.to_bytes(16, "big")).digest()
        assert key128.public.fingerprint == digest[:9]
        assert len(key128.public.fingerprint) == paillier.FINGERPRINT_BYTES == 9
        assert key64.public.fingerprint != key128.public.fingerprint
        assert paillier.keygen(128, seed=1).public.fingerprint != key128.public.fingerprint


class TestMalformedKeyMaterial:
    @pytest.mark.parametrize("n", [0xFF, (1 << 126) + 1], ids=["8", "127"])
    def test_modulus_of_a_weak_size_is_weak_key(self, n):
        """The offered size is the modulus's bit length: under 64 or odd is weak."""
        payload = {"n": n.to_bytes(16, "big")}
        with pytest.raises(WeakKey, match=f"got {n.bit_length()}$"):
            paillier.public_key_from_payload(payload, 128)

    def test_modulus_of_another_size_is_key_mismatch(self, key64):
        # a 64-bit modulus in the 16 bytes of a 128-bit one
        payload = {"n": key64.public.n.to_bytes(16, "big")}
        with pytest.raises(KeyMismatch, match="^offered a 64-bit key, expected 128$"):
            paillier.public_key_from_payload(payload, 128)
