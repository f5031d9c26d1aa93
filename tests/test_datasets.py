import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedboost.datasets import (
    GaussianSpec,
    LabeledData,
    generate_client_dataset,
    poison_labels,
    split,
)
from fedboost.errors import EmptyDataset

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def two_cluster_specs(count_each=50):
    return [
        GaussianSpec((-2.0, 0.0), IDENTITY, 0, count_each),
        GaussianSpec((2.0, 0.0), IDENTITY, 1, count_each),
    ]


class TestGaussianSpec:
    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="^covariance must be positive-definite, got "):
            GaussianSpec((0, 0), ((1.0, 2.0), (2.0, 1.0)), 0, 10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="^covariance must be 2x2 finite symmetric, got "):
            GaussianSpec((0, 0), ((1.0, 0.5), (0.0, 1.0)), 0, 10)

    def test_accepts_diagonal(self):
        GaussianSpec((0, 0), ((1.5, 0.0), (0.0, 0.5)), 1, 10)


class TestGenerate:
    def test_sample_mean_close_to_center(self):
        # law of large numbers: 10000 unit-covariance samples centered at origin
        specs = [
            GaussianSpec((0.0, 0.0), IDENTITY, 0, 5000),
            GaussianSpec((0.0, 0.0), IDENTITY, 1, 5000),
        ]
        data = generate_client_dataset(specs, seed=11)
        assert np.abs(data.x.mean(axis=0)).max() < 0.05

    def test_deterministic_per_seed(self):
        a = generate_client_dataset(two_cluster_specs(), seed=3)
        b = generate_client_dataset(two_cluster_specs(), seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = generate_client_dataset(two_cluster_specs(), seed=3)
        b = generate_client_dataset(two_cluster_specs(), seed=4)
        assert not np.array_equal(a.x, b.x)

    def test_zero_total_count_rejected(self):
        specs = [
            GaussianSpec((0, 0), IDENTITY, 0, 0),
            GaussianSpec((0, 0), IDENTITY, 1, 0),
        ]
        with pytest.raises(EmptyDataset):
            generate_client_dataset(specs, seed=1)

    def test_missing_label_rejected(self):
        with pytest.raises(EmptyDataset):
            generate_client_dataset([GaussianSpec((0, 0), IDENTITY, 0, 10)], seed=1)

    def test_count_matches_specs(self):
        data = generate_client_dataset(two_cluster_specs(30), seed=5)
        assert len(data) == 60
        assert (data.y == 0).sum() == 30 and (data.y == 1).sum() == 30


class TestSplit:
    def test_full_scale_proportions(self):
        data = generate_client_dataset(two_cluster_specs(20000), seed=9)
        parts = split(data, train_frac=0.9, val_frac_of_train=0.1, seed=1)
        assert len(parts.test) == 4000
        assert len(parts.validation) == 3600
        assert len(parts.train) == 32400

    def test_half_split_of_ten(self):
        data = generate_client_dataset(two_cluster_specs(5), seed=9)
        parts = split(data, train_frac=0.5, val_frac_of_train=0.2, seed=1)
        assert len(parts.test) == 5

    def test_partition_preserves_samples(self):
        data = generate_client_dataset(two_cluster_specs(40), seed=2)
        parts = split(data, 0.8, 0.25, seed=7)
        rebuilt = LabeledData.concat([parts.train, parts.validation, parts.test])
        assert len(rebuilt) == len(data)
        order_a = np.lexsort((data.y, data.x[:, 1], data.x[:, 0]))
        order_b = np.lexsort((rebuilt.y, rebuilt.x[:, 1], rebuilt.x[:, 0]))
        assert np.array_equal(data.x[order_a], rebuilt.x[order_b])
        assert np.array_equal(data.y[order_a], rebuilt.y[order_b])

    def test_empty_part_rejected(self):
        data = generate_client_dataset(two_cluster_specs(2), seed=2)
        with pytest.raises(EmptyDataset, match="^test part is empty for n=4$"):
            split(data, 0.99, 0.01, seed=1)

    def test_bad_fractions_rejected(self):
        data = generate_client_dataset(two_cluster_specs(10), seed=2)
        with pytest.raises(ValueError, match=r"^fractions must lie in \(0,1\), got train_frac=1.5 "):
            split(data, 1.5, 0.1, seed=1)

    @settings(max_examples=30, deadline=None)
    @given(
        n_each=st.integers(min_value=10, max_value=60),
        train_frac=st.floats(min_value=0.5, max_value=0.9),
        val_frac=st.floats(min_value=0.1, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, n_each, train_frac, val_frac, seed):
        data = generate_client_dataset(two_cluster_specs(n_each), seed=1)
        parts = split(data, train_frac, val_frac, seed)
        assert len(parts.train) + len(parts.validation) + len(parts.test) == len(data)
        assert len(parts.test) == int(round((1 - train_frac) * len(data)))


class TestPoison:
    def test_zero_fraction_is_identity(self):
        data = generate_client_dataset(two_cluster_specs(25), seed=3)
        out = poison_labels(data, 0.0, seed=1)
        assert np.array_equal(out.y, data.y)

    def test_full_fraction_inverts_all(self):
        data = generate_client_dataset(two_cluster_specs(25), seed=3)
        out = poison_labels(data, 1.0, seed=1)
        assert np.array_equal(out.y, 1 - data.y)

    def test_half_fraction_exact_count(self):
        data = generate_client_dataset(two_cluster_specs(50), seed=3)
        out = poison_labels(data, 0.5, seed=1)
        assert (out.y != data.y).sum() == 50

    @settings(max_examples=25, deadline=None)
    @given(
        frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_features_bit_exact(self, frac, seed):
        data = generate_client_dataset(two_cluster_specs(20), seed=5)
        out = poison_labels(data, frac, seed)
        assert np.array_equal(out.x, data.x)
        assert (out.y != data.y).sum() == int(round(frac * len(data)))
