import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from fedboost import aggregate as agg
from fedboost import paillier
from fedboost import quantize as qz
from fedboost.errors import (
    GradientOverflow,
    InvalidWeight,
    KeyMismatch,
    ShapeMismatch,
)


def oracle_boost_weights(T, V_rows, mode, dps=60):
    """High-precision recomputation: softmax(softmax(T) * (+-row_sums))."""
    with mp.workdps(dps):
        T = [mpf(t) for t in T]
        mx = max(T)
        e = [mp.e ** (t - mx) for t in T]
        total = sum(e)
        soft_T = [x / total for x in e]
        v = [sum(mpf(x) for x in row) for row in V_rows]
        if mode == "score":
            v = [-x for x in v]
        s = [a * b for a, b in zip(soft_T, v)]
        mx = max(s)
        e = [mp.e ** (x - mx) for x in s]
        total = sum(e)
        return [float(x / total) for x in e]


def make_matrix(rows):
    return agg.ValidationMatrix(np.array(rows, dtype=float))


class TestFedavgWeights:
    def test_two_clients(self):
        assert np.array_equal(agg.fedavg_weights(2).values, [0.5, 0.5])

    def test_five_clients(self):
        w = agg.fedavg_weights(5)
        assert np.all(w.values == 0.2)
        assert abs(w.values.sum() - 1.0) < 1e-12

    def test_empty_cohort(self):
        with pytest.raises(ShapeMismatch, match="^cohort size must be >= 1, got 0$"):
            agg.fedavg_weights(0)


class TestFedboostWeights:
    def test_symmetric_inputs_give_uniform(self):
        w = agg.fedboost_weights([0.3, 0.3], make_matrix([[0.7, 0.7], [0.7, 0.7]]))
        assert np.abs(w.values - agg.fedavg_weights(2).values).max() <= 1e-15

    def test_literal_example(self):
        # row sums are (2.0, 1.0); frozen values recomputed with the oracle
        V = make_matrix([[1.5, 0.5], [0.6, 0.4]])
        w = agg.fedboost_weights([0.2, 0.4], V, mode="literal")
        expected = oracle_boost_weights([0.2, 0.4], [[1.5, 0.5], [0.6, 0.4]], "literal")
        assert np.abs(w.values - expected).max() < 1e-12
        assert np.allclose(w.values, [0.5867383393635536, 0.4132616606364464], atol=1e-12)

    def test_score_example_inverts_order(self):
        V = make_matrix([[1.5, 0.5], [0.6, 0.4]])
        w = agg.fedboost_weights([0.2, 0.4], V, mode="score")
        expected = oracle_boost_weights([0.2, 0.4], [[1.5, 0.5], [0.6, 0.4]], "score")
        assert np.abs(w.values - expected).max() < 1e-12
        assert np.allclose(w.values, [0.4132616606364464, 0.5867383393635536], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            agg.fedboost_weights([0.1, 0.2, 0.3], make_matrix([[1, 1], [1, 1]]))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2**31),
        mode=st.sampled_from(["literal", "score"]),
    )
    def test_matches_oracle_and_is_convex(self, n, seed, mode):
        rng = np.random.default_rng(seed)
        T = rng.uniform(0.0, 3.0, n)
        V = rng.uniform(0.0, 3.0, (n, n))
        w = agg.fedboost_weights(T, make_matrix(V), mode=mode)
        expected = oracle_boost_weights(list(T), V.tolist(), mode)
        assert np.abs(w.values - expected).max() < 1e-12
        assert abs(w.values.sum() - 1.0) < 1e-12
        assert np.all(w.values > 0) and np.all(w.values < 1)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        row=st.integers(0, 2),
        bump=st.floats(min_value=0.01, max_value=5.0),
    )
    def test_score_mode_penalizes_worse_validation(self, seed, row, bump):
        # raising every validation loss of one model must strictly lower its weight
        rng = np.random.default_rng(seed)
        T = rng.uniform(0.0, 2.0, 3)
        V = rng.uniform(0.0, 2.0, (3, 3))
        before = agg.fedboost_weights(T, make_matrix(V), mode="score").values[row]
        V2 = V.copy()
        V2[row] += bump
        after = agg.fedboost_weights(T, make_matrix(V2), mode="score").values[row]
        assert after < before


class TestMergePlain:
    def test_uniform_matches_fedavg_formula(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=10) for _ in range(3)]
        merged = agg.merge_plain(grads, agg.fedavg_weights(3))
        reference = np.zeros(10)
        for g in grads:
            reference += (1.0 / 3.0) * g
        assert np.array_equal(merged, reference)

    def test_one_hot_returns_exact_gradient(self):
        grads = [np.array([1.25, -3.5]), np.array([9.0, 9.0])]
        merged = agg.merge_plain(grads, agg.AggregationWeights(np.array([1.0, 0.0])))
        assert np.array_equal(merged, grads[0])

    def test_weighted_example(self):
        merged = agg.merge_plain(
            [np.array([0.5]), np.array([0.1])], agg.AggregationWeights(np.array([0.7, 0.3]))
        )
        assert np.allclose(merged, [0.38], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            agg.merge_plain([np.zeros(3), np.zeros(4)], agg.fedavg_weights(2))


def encrypt_all(pk, grads, cfg, seed=0):
    rng = random.Random(seed)
    return [agg.encrypt_gradient(pk, qz.quantize(g, cfg), rng) for g in grads]


def decode_real(kp, eg):
    return qz.dequantize(agg.decrypt_gradient(kp, eg))


class TestMergeEncrypted:
    def test_exact_small_example(self, key128):
        cfg = qz.QuantConfig(scale_exponent=4, pieces=10)
        egrads = encrypt_all(key128.public, [np.array([0.5]), np.array([0.1])], cfg)
        w = agg.AggregationWeights(np.array([0.7, 0.3]))
        merged = agg.merge_encrypted(key128.public, egrads, w, pieces=10)
        assert merged.config.pieces == 1
        assert decode_real(key128, merged)[0] == 0.38

    def test_one_hot_recovers_quantized_gradient(self, key128):
        cfg = qz.QuantConfig(scale_exponent=6, pieces=10)
        g1, g2 = np.array([0.123, -0.456]), np.array([8.0, -8.0])
        egrads = encrypt_all(key128.public, [g1, g2], cfg)
        w = agg.AggregationWeights(np.array([1.0, 0.0]))
        merged = agg.merge_encrypted(key128.public, egrads, w, pieces=10)
        bound = cfg.pieces / (2 * cfg.scale)
        assert np.abs(decode_real(key128, merged) - g1).max() <= bound

    def test_matches_plain_merge_within_bound(self, key128):
        cfg = qz.QuantConfig(scale_exponent=6, pieces=10)
        rng = np.random.default_rng(3)
        for _ in range(60):
            grads = [rng.uniform(-2, 2, 4) for _ in range(2)]
            w_raw = rng.uniform(0.1, 1.0, 2)
            w = agg.AggregationWeights(w_raw / w_raw.sum())
            egrads = encrypt_all(key128.public, grads, cfg)
            merged = agg.merge_encrypted(key128.public, egrads, w, pieces=cfg.pieces)
            plain = agg.merge_plain(grads, w)
            bound = (
                sum(np.abs(g) for g in grads) / (2 * cfg.pieces)
                + len(grads) * cfg.pieces / (2 * cfg.scale)
            )
            assert np.all(np.abs(decode_real(key128, merged) - plain) <= bound)

    def test_key_mismatch(self, key128, key64):
        cfg = qz.QuantConfig(scale_exponent=4, pieces=10)
        a = encrypt_all(key128.public, [np.array([0.1])], cfg)[0]
        b = encrypt_all(key64.public, [np.array([0.1])], cfg)[0]
        with pytest.raises(KeyMismatch):
            agg.merge_encrypted(key128.public, [a, b], agg.fedavg_weights(2), pieces=10)


class TestDpFuse:
    def test_identity_fusion_at_p_hat_one(self, key128):
        cfg = qz.QuantConfig(scale_exponent=6, pieces=10)
        grads = [np.array([0.5, -0.25]), np.array([0.1, 0.9])]
        egrads = encrypt_all(key128.public, grads, cfg)
        fused = agg.dp_fuse(key128.public, egrads, 1.0, 10)
        bound = cfg.pieces / (2 * cfg.scale)
        for i, g in enumerate(grads):
            assert np.abs(decode_real(key128, fused[i]) - g).max() <= bound

    def test_small_example(self, key128):
        cfg = qz.QuantConfig(scale_exponent=4, pieces=10)
        egrads = encrypt_all(key128.public, [np.array([0.5]), np.array([0.1])], cfg)
        fused = agg.dp_fuse(key128.public, egrads, 0.9, 10)
        assert decode_real(key128, fused[0])[0] == 0.46

    def test_matches_plain_linear_combination(self, key128):
        cfg = qz.QuantConfig(scale_exponent=8, pieces=100)
        rng = np.random.default_rng(5)
        grads = [rng.uniform(-1, 1, 5) for _ in range(3)]
        egrads = encrypt_all(key128.public, grads, cfg)
        fused = agg.dp_fuse(key128.public, egrads, 0.9, 100)
        off = (1 - 0.9) / 2
        for i in range(3):
            expected = 0.9 * grads[i] + off * sum(g for j, g in enumerate(grads) if j != i)
            bound = sum(np.abs(g) for g in grads) / (2 * cfg.pieces) + 3 * cfg.pieces / (
                2 * cfg.scale
            )
            assert np.all(np.abs(decode_real(key128, fused[i]) - expected) <= bound)

    def test_diagonal_dominance_of_decoded_models(self, key128):
        cfg = qz.QuantConfig(scale_exponent=8, pieces=100)
        rng = np.random.default_rng(9)
        grads = [rng.normal(0, 1, 6) for _ in range(2)]
        egrads = encrypt_all(key128.public, grads, cfg)
        fused = agg.dp_fuse(key128.public, egrads, 0.9, 100)
        for i in range(2):
            decoded = decode_real(key128, fused[i])
            own = np.linalg.norm(decoded - grads[i])
            for j in range(2):
                if j != i:
                    assert own < np.linalg.norm(decoded - grads[j])

    def test_single_model_rejected(self, key128):
        cfg = qz.QuantConfig(scale_exponent=4, pieces=10)
        egrads = encrypt_all(key128.public, [np.array([0.5])], cfg)
        with pytest.raises(ShapeMismatch, match="^fusion needs at least 2 models; disable it for 1$"):
            agg.dp_fuse(key128.public, egrads, 0.9, 10)

    def test_p_hat_must_dominate(self, key128):
        cfg = qz.QuantConfig(scale_exponent=4, pieces=10)
        egrads = encrypt_all(key128.public, [np.array([0.5])] * 3, cfg)
        with pytest.raises(InvalidWeight):
            agg.dp_fuse(key128.public, egrads, 0.3, 10)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        p_hat=st.floats(min_value=0.51, max_value=1.0),
        n=st.integers(2, 6),
        pieces=st.integers(10, 1000),
    )
    def test_integer_weights_diagonally_dominant(self, key128, data, p_hat, n, pieces):
        # dp_fuse either yields strictly dominant integer weights or refuses
        cfg = qz.QuantConfig(scale_exponent=4, pieces=pieces)
        egrads = encrypt_all(key128.public, [np.array([0.25])] * n, cfg)
        k_self = qz.quantize_weight(p_hat, pieces)
        k_other = qz.quantize_weight((1 - p_hat) / (n - 1), pieces)
        if k_self > k_other:
            assert len(agg.dp_fuse(key128.public, egrads, p_hat, pieces)) == n
        else:
            with pytest.raises(InvalidWeight):
                agg.dp_fuse(key128.public, egrads, p_hat, pieces)


class TestWeightInvariants:
    def test_sum_within_tolerance_enforced(self):
        with pytest.raises(InvalidWeight):
            agg.AggregationWeights(np.array([0.6, 0.6]))

    def test_negative_rejected(self):
        with pytest.raises(InvalidWeight):
            agg.AggregationWeights(np.array([-0.5, 1.5]))


# --- slot packing -------------------------------------------------------------

PACKING_KEY_BITS = {1: 128, 2: 256, 8: 1024}


@pytest.fixture(scope="module")
def packing_keys():
    """One key pair per slot count: 128-bit (1 slot), 256 (2), 1024 (8)."""
    keys = {slots: paillier.keygen(bits, seed=31) for slots, bits in PACKING_KEY_BITS.items()}
    for slots, kp in keys.items():
        assert agg.slots_per_ciphertext(kp.key_bits) == slots
    return keys


def largest_admitted(pk, n_clients, pieces):
    """The largest |v| that check_capacity admits under pk's slot layout."""
    return (agg.slot_capacity(pk) - 1) // (2 * n_clients * pieces)


def exact_sum(int_weights, values):
    return [sum(k * v[e] for k, v in zip(int_weights, values)) for e in range(len(values[0]))]


class TestSlotLayout:
    def test_slot_counts_per_key_size(self):
        assert [agg.slots_per_ciphertext(b) for b in (64, 128, 254, 256, 512, 1024, 2048)] == [
            1, 1, 1, 2, 4, 8, 16
        ]

    def test_one_slot_keeps_the_whole_modulus(self, key128):
        assert agg.slot_capacity(key128.public) == key128.public.n

    def test_ciphertexts_per_42_entry_gradient(self, packing_keys):
        q = qz.QuantizedGradient(values=list(range(-21, 21)), config=qz.QuantConfig())
        for slots, kp in packing_keys.items():
            eg = agg.encrypt_gradient(kp, q, random.Random(0))
            assert (len(eg), eg.entries) == (-(-42 // slots), 42)
            assert agg.decrypt_gradient(kp, eg).values == q.values

    def test_one_slot_ciphertexts_equal_unpacked_encryption(self, key128):
        values = [5, -7, 0, 2**100, -(2**100)]
        q = qz.QuantizedGradient(values=values, config=qz.QuantConfig())
        packed = agg.encrypt_gradient(key128, q, random.Random(3))
        rng = random.Random(3)
        unpacked = [
            paillier.encrypt(key128, paillier.encode_signed(v, key128.public.n), rng)
            for v in values
        ]
        assert [c.value for c in packed.ciphertexts] == [c.value for c in unpacked]

    def test_ciphertext_count_must_match_entries(self, packing_keys):
        q = qz.QuantizedGradient(values=[1] * 9, config=qz.QuantConfig())
        eg = agg.encrypt_gradient(packing_keys[8], q, random.Random(0))
        with pytest.raises(ShapeMismatch):
            agg.EncryptedGradient(eg.ciphertexts, eg.config, entries=17)
        with pytest.raises(ShapeMismatch):
            agg.EncryptedGradient(eg.ciphertexts[:1], eg.config, entries=9)


class TestPackedArithmetic:
    @pytest.mark.parametrize("slots", sorted(PACKING_KEY_BITS))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_merge_and_fuse_equal_exact_integer_sums(self, packing_keys, slots, data):
        kp = packing_keys[slots]
        n_models = data.draw(st.integers(2, 4), label="n_models")
        pieces = data.draw(st.sampled_from([1, 10, 100]), label="pieces")
        length = data.draw(st.integers(1, 2 * slots + 1), label="length")
        bound = largest_admitted(kp.public, n_models, pieces)
        entry = st.one_of(
            st.integers(-bound, bound), st.sampled_from([-bound, -1, 0, 1, bound])
        )
        values = [
            data.draw(st.lists(entry, min_size=length, max_size=length), label=f"g{i}")
            for i in range(n_models)
        ]
        cfg = qz.QuantConfig(scale_exponent=32, pieces=pieces)
        rng = random.Random(data.draw(st.integers(0, 2**32), label="nonce"))
        egrads = [
            agg.encrypt_gradient(kp, qz.QuantizedGradient(v, cfg), rng, n_models, pieces)
            for v in values
        ]
        assert all(len(eg) == -(-length // slots) for eg in egrads)

        raw = data.draw(
            st.lists(st.integers(0, 1000), min_size=n_models, max_size=n_models).filter(any),
            label="weights",
        )
        w = agg.AggregationWeights(np.array(raw) / sum(raw))
        merged = agg.merge_encrypted(kp.public, egrads, w, pieces)
        k = [qz.quantize_weight(float(x), pieces) for x in w.values]
        assert agg.decrypt_gradient(kp, merged).values == exact_sum(k, values)

        p_hat = data.draw(st.sampled_from([0.6, 0.9, 1.0]), label="p_hat")
        k_self = qz.quantize_weight(p_hat, pieces)
        k_other = qz.quantize_weight((1 - p_hat) / (n_models - 1), pieces)
        if k_self <= k_other:
            return
        fused = agg.dp_fuse(kp.public, egrads, p_hat, pieces)
        for i, f in enumerate(fused):
            k = [k_self if j == i else k_other for j in range(n_models)]
            assert agg.decrypt_gradient(kp, f).values == exact_sum(k, values)

    def test_negative_slots_borrow_from_neighbours(self, packing_keys):
        kp = packing_keys[8]
        cfg = qz.QuantConfig(scale_exponent=32, pieces=1)
        # 11 entries: the last ciphertext holds 3
        a = [-1, 1, -1, 0, -(2**125), 2**125, -5, 3, -1, -2, 7]
        b = [0, -1, 1, -1, 2**125 - 7, -(2**125) + 9, 5, -3, 1, -1, -7]
        egrads = [
            agg.encrypt_gradient(kp, qz.QuantizedGradient(v, cfg), random.Random(i))
            for i, v in enumerate((a, b))
        ]
        assert [len(eg) for eg in egrads] == [2, 2]
        uniform = agg.AggregationWeights(np.array([0.5, 0.5]))
        sums = agg.merge_encrypted(kp.public, egrads, uniform, 2)
        assert agg.decrypt_gradient(kp, sums).values == [x + y for x, y in zip(a, b)]


class TestSlotCapacity:
    @pytest.mark.parametrize("slots", [1, 8])
    @pytest.mark.parametrize("n_clients, pieces", [(3, 100), (2, 64)])
    def test_largest_admitted_value_survives_worst_case_sum(
        self, packing_keys, slots, n_clients, pieces
    ):
        kp = packing_keys[slots]
        bound = largest_admitted(kp.public, n_clients, pieces)
        values = [bound, -bound, 0, bound, -bound, 1, -1, bound, -bound, bound]
        q = qz.QuantizedGradient(values, qz.QuantConfig(pieces=pieces))
        egrads = [
            agg.encrypt_gradient(kp, q, random.Random(i), n_clients, pieces)
            for i in range(n_clients)
        ]
        # every client at the full weight P: the largest sum the check allows for
        worst = []
        for cts in zip(*(eg.ciphertexts for eg in egrads)):
            acc = paillier.he_scalar_mul(kp.public, pieces, cts[0])
            for c in cts[1:]:
                acc = paillier.he_add(kp.public, acc, paillier.he_scalar_mul(kp.public, pieces, c))
            worst.append(acc)
        total = agg.EncryptedGradient(worst, q.config, entries=len(values))
        assert agg.decrypt_gradient(kp, total).values == [n_clients * pieces * v for v in values]

    @pytest.mark.parametrize("slots", [1, 8])
    @pytest.mark.parametrize("index, sign", [(0, 1), (6, -1), (9, 1)])
    @pytest.mark.parametrize("pieces", [100, 64])  # 2*N*64 divides 2^127: the bound is met exactly
    def test_one_past_the_bound_overflows_at_its_index(
        self, packing_keys, slots, index, sign, pieces
    ):
        kp, n_clients = packing_keys[slots], 2
        bound = largest_admitted(kp.public, n_clients, pieces)
        values = [bound] * 10
        values[index] = sign * (bound + 1)
        q = qz.QuantizedGradient(values, qz.QuantConfig(pieces=pieces))
        with pytest.raises(GradientOverflow, match=rf"^entry {index} \("):
            agg.encrypt_gradient(kp, q, random.Random(0), n_clients, pieces)
