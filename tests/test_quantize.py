from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedboost import quantize as qz
from fedboost.errors import GradientOverflow, InvalidWeight, NonFiniteInput


def oracle_quantize_entry(x: float, scale_exponent: int, pieces: int) -> int:
    """Integer-arithmetic round-half-even of x * 10^scale_exponent / pieces."""
    num, den = float(x).as_integer_ratio()
    a = num * 10**scale_exponent
    b = den * pieces
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2 != 0):
        q += 1
    return q


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestQuantize:
    def test_exactly_representable_value(self):
        cfg = qz.QuantConfig(scale_exponent=8, pieces=100)
        assert qz.quantize(np.array([0.123456]), cfg).values == [123456]

    def test_rounded_value_and_error_bound(self):
        cfg = qz.QuantConfig(scale_exponent=8, pieces=100)
        q = qz.quantize(np.array([0.12345678]), cfg)
        assert q.values == [oracle_quantize_entry(0.12345678, 8, 100)] == [123457]
        err = abs(qz.dequantize(q)[0] - 0.12345678)
        assert err <= cfg.pieces / (2 * cfg.scale)

    def test_zero(self):
        q = qz.quantize(np.array([0.0]), qz.QuantConfig())
        assert q.values == [0]
        assert qz.dequantize(q)[0] == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput, match="^gradient entries must be finite$"):
            qz.quantize(np.array([np.inf]), qz.QuantConfig())
        with pytest.raises(NonFiniteInput, match="^gradient entries must be finite$"):
            qz.quantize(np.array([np.nan]), qz.QuantConfig())

    def test_order_independent(self):
        cfg = qz.QuantConfig(scale_exponent=12, pieces=7)
        g = np.array([0.1, -0.25, 3.75, -1e-9])
        fwd = qz.quantize(g, cfg).values
        rev = qz.quantize(g[::-1], cfg).values
        assert fwd == rev[::-1]

    @settings(max_examples=150, deadline=None)
    @given(x=finite_floats, scale_exponent=st.integers(2, 40), pieces=st.integers(1, 1000))
    def test_matches_integer_oracle(self, x, scale_exponent, pieces):
        cfg = qz.QuantConfig(scale_exponent=scale_exponent, pieces=pieces)
        assert qz.quantize(np.array([x]), cfg).values[0] == oracle_quantize_entry(
            x, scale_exponent, pieces
        )


class TestDequantize:
    def test_zero_vector(self):
        q = qz.QuantizedGradient(values=[0, 0, 0], config=qz.QuantConfig())
        assert np.array_equal(qz.dequantize(q), np.zeros(3))

    def test_exact_multiples_roundtrip_bit_exact(self):
        cfg = qz.QuantConfig(scale_exponent=8, pieces=100)
        for k in range(-50, 51):
            x = float(Fraction(k * cfg.pieces, cfg.scale))
            q = qz.quantize(np.array([x]), cfg)
            assert q.values[0] == k
            assert qz.dequantize(q)[0] == x

    @settings(max_examples=200, deadline=None)
    @given(x=finite_floats)
    def test_roundtrip_within_half_piece(self, x):
        # the bound holds exactly in rational space; the float result is the
        # correctly rounded value of the stored integers
        cfg = qz.QuantConfig(scale_exponent=12, pieces=100)
        q = qz.quantize(np.array([x]), cfg)
        exact = Fraction(q.values[0] * cfg.pieces, cfg.scale)
        assert abs(exact - Fraction(x)) <= Fraction(cfg.pieces, 2 * cfg.scale)
        assert qz.dequantize(q)[0] == float(exact)

    @settings(max_examples=100, deadline=None)
    @given(exponent=st.floats(min_value=-20, max_value=3), sign=st.sampled_from([-1.0, 1.0]))
    def test_relative_error_at_default_scale(self, exponent, sign):
        # entries of magnitude >= 1e-20 keep >= 1e11 significant headroom at S=1e32
        x = sign * 10.0**exponent
        cfg = qz.QuantConfig(scale_exponent=32, pieces=100)
        q = qz.quantize(np.array([x]), cfg)
        exact = Fraction(q.values[0] * cfg.pieces, cfg.scale)
        rel = abs(exact - Fraction(x)) / abs(Fraction(x))
        assert rel <= Fraction(5, 10**11)


class TestQuantizeWeight:
    def test_simple_cases(self):
        assert qz.quantize_weight(0.7, 10) == 7
        assert qz.quantize_weight(1.0, 100) == 100
        assert qz.quantize_weight(0.0, 100) == 0

    def test_half_to_even_on_exact_ties(self):
        # 0.25 and 0.75 are dyadic, so p*P hits exact .5 ties
        assert qz.quantize_weight(0.25, 10) == 2
        assert qz.quantize_weight(0.75, 10) == 8

    def test_near_tie_uses_exact_float_value(self):
        # the float closest to 0.905 lies just above it, so 0.905*100 rounds up
        assert qz.quantize_weight(0.905, 100) == oracle_quantize_entry(0.905, 2, 1) == 91

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidWeight):
            qz.quantize_weight(-0.1, 10)
        with pytest.raises(InvalidWeight):
            qz.quantize_weight(1.1, 10)

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(min_value=0.0, max_value=1.0), pieces=st.integers(1, 10000))
    def test_in_range_and_matches_oracle(self, p, pieces):
        k = qz.quantize_weight(p, pieces)
        assert 0 <= k <= pieces
        num, den = float(p).as_integer_ratio()
        q, r = divmod(num * pieces, den)
        if 2 * r > den or (2 * r == den and q % 2 != 0):
            q += 1
        assert k == q


class TestCapacity:
    def test_full_scale_passes(self, key128):
        cfg = qz.QuantConfig(scale_exponent=32, pieces=100)
        g = qz.quantize(np.random.default_rng(0).uniform(-1, 1, 42), cfg)
        qz.check_capacity(g, key128.public.n, n_clients=2, pieces=100)

    def test_tiny_modulus_overflows(self):
        cfg = qz.QuantConfig(scale_exponent=4, pieces=10)
        g = qz.quantize(np.array([0.5]), cfg)
        with pytest.raises(GradientOverflow, match=r"^entry 0 \("):
            qz.check_capacity(g, 35, n_clients=2, pieces=10)

    def test_zero_gradient_always_passes(self):
        g = qz.QuantizedGradient(values=[0, 0], config=qz.QuantConfig())
        qz.check_capacity(g, 3, n_clients=100, pieces=1000)
