import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedboost import nn
from fedboost.datasets import DatasetSplit, GaussianSpec, LabeledData, generate_client_dataset, split
from fedboost.errors import EmptyDataset, InvalidLayout, NonFiniteInput, ShapeMismatch

LAYOUT = nn.Layout(8)


# --- independent scalar oracle: plain-Python recomputation of the network ---


def oracle_forward(values, layout, x):
    offset = 0
    mats = []
    for fan_in, fan_out in layout.layers:
        w = [[values[offset + r * fan_in + c] for c in range(fan_in)] for r in range(fan_out)]
        offset += fan_in * fan_out
        b = [values[offset + r] for r in range(fan_out)]
        offset += fan_out
        mats.append((w, b))
    h = list(x)
    for li, (w, b) in enumerate(mats):
        z = [sum(w[r][c] * h[c] for c in range(len(h))) + b[r] for r in range(len(b))]
        if li < len(mats) - 1:
            h = [1.0 / (1.0 + math.exp(-zz)) for zz in z]
        else:
            mx = max(z)
            ez = [math.exp(zz - mx) for zz in z]
            total = sum(ez)
            h = [e / total for e in ez]
    return h


def oracle_loss(values, layout, x, y):
    return -math.log(oracle_forward(values, layout, x)[y])


def oracle_mean_loss(values, layout, xs, ys):
    return sum(oracle_loss(values, layout, x, y) for x, y in zip(xs, ys)) / len(xs)


def fd_gradient(values, layout, xs, ys, h=1e-5):
    """Central finite differences of the mean loss, entry by entry."""
    g = np.zeros(len(values))
    for k in range(len(values)):
        up, dn = list(values), list(values)
        up[k] += h
        dn[k] -= h
        g[k] = (oracle_mean_loss(up, layout, xs, ys) - oracle_mean_loss(dn, layout, xs, ys)) / (2 * h)
    return g


def random_params(rng):
    return nn.ModelParams(rng.uniform(-0.7, 0.7, LAYOUT.size), LAYOUT)


def tiny_split(n_each=8, seed=0):
    identity = ((1.0, 0.0), (0.0, 1.0))
    data = generate_client_dataset(
        [GaussianSpec((-1, 0), identity, 0, n_each), GaussianSpec((1, 0), identity, 1, n_each)],
        seed=seed,
    )
    n = len(data)
    return DatasetSplit(train=data, validation=data.subset(np.arange(2)), test=data.subset(np.arange(2)))


class TestLayout:
    def test_default_has_42_values(self):
        assert LAYOUT.size == 42

    def test_empty_rejected(self):
        with pytest.raises(InvalidLayout, match="n_hidden must be an int >= 1, got 0"):
            nn.Layout(0)

    def test_layers_are_2_n_hidden_2(self):
        assert nn.Layout(5).layers == ((2, 5), (5, 2))
        assert nn.Layout(5).size == 5 * 3 + 2 * 6

    @pytest.mark.parametrize("n_hidden", [-3, 2.0, True, "8", None, ((2, 8), (8, 2))])
    def test_bad_n_hidden_rejected(self, n_hidden):
        with pytest.raises(InvalidLayout, match="n_hidden must be an int >= 1"):
            nn.Layout(n_hidden)


class TestInit:
    def test_biases_zero_and_finite(self):
        params = nn.init_params(7, LAYOUT)
        assert params.values.shape == (42,)
        assert np.all(np.isfinite(params.values))
        for _w, b in LAYOUT.views(params.values):
            assert np.all(b == 0)

    def test_deterministic(self):
        assert np.array_equal(nn.init_params(7, LAYOUT).values, nn.init_params(7, LAYOUT).values)

    def test_seeds_differ(self):
        assert not np.array_equal(nn.init_params(7, LAYOUT).values, nn.init_params(8, LAYOUT).values)

    def test_weights_within_fan_in_bound(self):
        params = nn.init_params(3, LAYOUT)
        for w, _b in LAYOUT.views(params.values):
            assert np.abs(w).max() <= 1.0 / np.sqrt(w.shape[1])


class TestForward:
    def test_zero_params_give_uniform(self):
        params = nn.ModelParams(np.zeros(42), LAYOUT)
        assert np.allclose(nn.forward(params, (3.0, -1.0)), [0.5, 0.5], atol=1e-15)

    def test_output_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs = nn.forward(random_params(rng), rng.normal(size=2))
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        params = random_params(rng)
        x = [0.35, -1.2]
        expected = oracle_forward(list(params.values), LAYOUT, x)
        assert np.allclose(nn.forward(params, x), expected, atol=1e-12)

    @pytest.mark.parametrize("x", [(1.0,), (1.0, 2.0, 3.0), ((1.0, 2.0),)])
    def test_input_of_another_shape_rejected(self, x):
        with pytest.raises(ShapeMismatch, match=r"expected input of shape \(2,\)"):
            nn.forward(nn.init_params(1, LAYOUT), x)

    def test_non_finite_input_rejected(self):
        params = nn.init_params(1, LAYOUT)
        with pytest.raises(NonFiniteInput):
            nn.forward(params, (np.nan, 0.0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), x0=st.floats(-50, 50), x1=st.floats(-50, 50))
    def test_softmax_sums_to_one(self, seed, x0, x1):
        rng = np.random.default_rng(seed)
        probs = nn.forward(random_params(rng), (x0, x1))
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs > 0)


class TestEvaluate:
    def test_zero_params_on_balanced_set_give_ln2(self):
        parts = tiny_split(10)
        loss, acc = nn.evaluate(nn.ModelParams(np.zeros(42), LAYOUT), parts.train)
        assert abs(loss - math.log(2)) < 1e-9

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(5)
        params = random_params(rng)
        data = tiny_split(5, seed=3).train
        expected_loss = oracle_mean_loss(list(params.values), LAYOUT, data.x, data.y)
        expected_acc = np.mean(
            [np.argmax(oracle_forward(list(params.values), LAYOUT, x)) == y for x, y in zip(data.x, data.y)]
        )
        loss, acc = nn.evaluate(params, data)
        assert abs(loss - expected_loss) < 1e-12
        assert acc == expected_acc

    def test_confident_correct_predictions(self):
        # huge weights on a linearly separable direction force probabilities to 1
        flat = np.zeros(42)
        w1, b1 = LAYOUT.views(flat)[0]
        w2, b2 = LAYOUT.views(flat)[1]
        w1[0, 0] = 50.0
        w2[0, 0] = -50.0
        w2[1, 0] = 50.0
        b2[:] = (25.0, -25.0)
        params = nn.ModelParams(flat, LAYOUT)
        data = LabeledData(np.array([[-3.0, 0.0], [3.0, 0.0]]), np.array([0, 1]))
        loss, acc = nn.evaluate(params, data)
        assert acc == 1.0
        assert loss < 1e-6

    def test_empty_rejected(self):
        data = LabeledData(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyDataset):
            nn.evaluate(nn.init_params(0, LAYOUT), data)


def loss_and_grad(views, grad_views, x, y):
    """Generic per-batch backprop for any depth: the mean cross-entropy over
    the batch; writes the gradient into ``grad_views``. The oracle for the
    fused two-layer step in ``nn.train_local``."""
    acts = [x]
    h = x
    for w, b in views[:-1]:
        h = nn._sigmoid(h @ w.T + b)
        acts.append(h)
    w_out, b_out = views[-1]
    logp = nn._log_softmax(h @ w_out.T + b_out)
    n = x.shape[0]
    loss = -logp[np.arange(n), y].mean()

    delta = np.exp(logp)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    for layer in range(len(views) - 1, -1, -1):
        gw, gb = grad_views[layer]
        gw[:] = delta.T @ acts[layer]
        gb[:] = delta.sum(axis=0)
        if layer > 0:
            h = acts[layer]
            delta = (delta @ views[layer][0]) * h * (1.0 - h)
    return loss


def analytic_gradient(params, x, y):
    grad = np.zeros_like(params.values)
    loss_and_grad(params.layout.views(params.values), params.layout.views(grad), x, y)
    return grad


def reference_train(params, data, batch_size, epochs, learning_rate, seed):
    """Unfused training: the oracle's gradient per batch, Adam on the flat
    vector, and the batch order ``train_local`` draws from ``seed``."""
    train = data.train
    flat = params.values.copy()
    grad = np.zeros_like(flat)
    views, grad_views = params.layout.views(flat), params.layout.views(grad)
    m, v, t = np.zeros_like(flat), np.zeros_like(flat), 0
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        perm = rng.permutation(len(train))
        for start in range(0, len(train), batch_size):
            idx = perm[start : start + batch_size]
            loss_and_grad(views, grad_views, train.x[idx], train.y[idx])
            t += 1
            m = nn.ADAM_BETA1 * m + (1.0 - nn.ADAM_BETA1) * grad
            v = nn.ADAM_BETA2 * v + (1.0 - nn.ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - nn.ADAM_BETA1**t)
            v_hat = v / (1.0 - nn.ADAM_BETA2**t)
            flat -= learning_rate * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPSILON)
    return flat - params.values


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        # 100 random (params, sample) draws
        rng = np.random.default_rng(123)
        for _ in range(100):
            params = random_params(rng)
            x = rng.normal(size=(1, 2))
            y = np.array([rng.integers(0, 2)])
            analytic = analytic_gradient(params, x, y)
            reference = fd_gradient(list(params.values), LAYOUT, x, y)
            rel = np.linalg.norm(analytic - reference) / np.linalg.norm(reference)
            assert rel < 1e-6

    def test_batch_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        x = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, size=6)
        analytic = analytic_gradient(params, x, y)
        reference = fd_gradient(list(params.values), LAYOUT, x, y)
        assert np.linalg.norm(analytic - reference) / np.linalg.norm(reference) < 1e-6

    def test_first_adam_step_follows_the_gradient(self):
        # Adam's first step is -lr * g / (|g| + eps) for the gradient g it is fed
        rng = np.random.default_rng(5)
        params = random_params(rng)
        x = rng.normal(size=(1, 2))
        y = np.array([1])
        parts = DatasetSplit(LabeledData(x, y), LabeledData(x, y), LabeledData(x, y))
        lr = 0.003
        report = nn.train_local(params, parts, batch_size=1, epochs=1, learning_rate=lr, seed=0)
        g = analytic_gradient(params, x, y)
        expected = -lr * g / (np.abs(g) + nn.ADAM_EPSILON)
        assert np.allclose(report.gradient, expected, rtol=1e-12, atol=1e-18)


class TestFusedStep:
    """The fused two-layer step against the unfused oracle loop; the two sum
    in different orders, so they agree to rounding, not bit for bit."""

    @pytest.mark.parametrize("n_hidden", [1, 8, 32])
    @pytest.mark.parametrize("batch_size", [7, 64])  # 40 rows: a partial last batch; one batch
    def test_matches_reference_adam_loop(self, n_hidden, batch_size):
        layout = nn.Layout(n_hidden)
        params = nn.init_params(n_hidden, layout)
        parts = tiny_split(20, seed=n_hidden)
        lr = 0.05
        report = nn.train_local(params, parts, batch_size, 2, lr, seed=3)
        expected = reference_train(params, parts, batch_size, 2, lr, seed=3)
        assert np.all(expected != 0)
        np.testing.assert_allclose(report.gradient, expected, rtol=1e-12, atol=0)
        post = nn.ModelParams(params.values + expected, layout)
        assert report.training_loss == pytest.approx(nn.evaluate(post, parts.train)[0], rel=1e-12)

    def test_saturated_pre_activations_give_a_finite_delta(self):
        # pre-activations of both layers reach thousands, far past exp's range
        flat = nn.init_params(1, LAYOUT).values
        (w1, _b1), (w2, _b2) = LAYOUT.views(flat)
        w1[:] = np.where(w1 >= 0, 1000.0, -1000.0)
        w2[:] = np.where(w2 >= 0, 1000.0, -1000.0)
        params = nn.ModelParams(flat, LAYOUT)
        parts = tiny_split(10, seed=4)
        z1 = parts.train.x @ w1.T
        assert np.abs(z1).max() > 710 and np.abs(nn._sigmoid(z1) @ w2.T).max() > 710
        lr = 0.003
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = nn.train_local(params, parts, 4, 1, lr, seed=2)
        assert np.all(np.isfinite(report.gradient))
        expected = reference_train(params, parts, 4, 1, lr, seed=2)
        np.testing.assert_allclose(report.gradient, expected, rtol=1e-12, atol=0)


class TestTrainLocal:
    def test_negative_learning_rate_refused(self):
        with pytest.raises(ValueError, match="learning_rate must be >= 0"):
            nn.train_local(nn.init_params(2, LAYOUT), tiny_split(), 4, 1, -0.001, 0)

    def test_zero_learning_rate_gives_zero_delta(self):
        params = nn.init_params(2, LAYOUT)
        report = nn.train_local(params, tiny_split(), batch_size=4, epochs=2, learning_rate=0.0, seed=1)
        assert np.all(report.gradient == 0)

    def test_single_adam_step_matches_oracle(self):
        # one sample, one epoch, batch 1: delta must equal -lr * g / (|g| + eps)
        rng = np.random.default_rng(11)
        params = random_params(rng)
        x = np.array([[0.8, -0.3]])
        y = np.array([1])
        parts = DatasetSplit(LabeledData(x, y), LabeledData(x, y), LabeledData(x, y))
        lr = 0.003
        report = nn.train_local(params, parts, batch_size=1, epochs=1, learning_rate=lr, seed=0)
        g = fd_gradient(list(params.values), LAYOUT, x, y, h=1e-6)
        expected = -lr * g / (np.abs(g) + nn.ADAM_EPSILON)
        assert np.allclose(report.gradient, expected, atol=1e-9)

    def test_deterministic_for_seed(self):
        params = nn.init_params(4, LAYOUT)
        lr = 0.003
        parts = tiny_split(16)
        a = nn.train_local(params, parts, 4, 2, lr, seed=9)
        b = nn.train_local(params, parts, 4, 2, lr, seed=9)
        assert np.array_equal(a.gradient, b.gradient)
        assert a.training_loss == b.training_loss

    def test_seed_changes_batch_order(self):
        params = nn.init_params(4, LAYOUT)
        lr = 0.003
        parts = tiny_split(16)
        a = nn.train_local(params, parts, 4, 1, lr, seed=9)
        b = nn.train_local(params, parts, 4, 1, lr, seed=10)
        assert not np.array_equal(a.gradient, b.gradient)

    def test_post_weights_reconstruct_exactly(self):
        params = nn.init_params(4, LAYOUT)
        lr = 0.003
        report = nn.train_local(params, tiny_split(16), 8, 1, lr, seed=1)
        post = nn.apply_gradient(params, report.gradient)
        loss, _ = nn.evaluate(post, tiny_split(16).train)
        assert loss == report.training_loss

    def test_empty_training_set_rejected(self):
        data = LabeledData(np.zeros((0, 2)), np.zeros(0, dtype=int))
        parts = DatasetSplit(data, data, data)
        with pytest.raises(EmptyDataset):
            nn.train_local(nn.init_params(0, LAYOUT), parts, 1, 1, 0.003, 0)

    def test_training_loss_is_full_pass_mean(self):
        params = nn.init_params(4, LAYOUT)
        lr = 0.003
        parts = tiny_split(16)
        report = nn.train_local(params, parts, 4, 1, lr, seed=9)
        post = nn.apply_gradient(params, report.gradient)
        assert report.training_loss == nn.evaluate(post, parts.train)[0]


class TestTrainCohort:
    """Stacked training against each client trained alone, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        # 2 * n_each rows: sizes repeat (one group) and differ (several groups)
        halves=st.lists(st.sampled_from([1, 2, 5, 13, 30]), min_size=1, max_size=4),
        batch_size=st.integers(1, 64),
        epochs=st.integers(1, 2),
        stage_rows=st.sampled_from([nn.STAGE_ROWS, 1, 5, 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_each_client_trained_alone(self, halves, batch_size, epochs, stage_rows, seed):
        rng = np.random.default_rng(seed)
        params = [random_params(rng) for _ in halves]
        splits = [tiny_split(n_each, seed=int(rng.integers(1000))) for n_each in halves]
        seeds = [int(s) for s in rng.integers(0, 2**63, size=len(halves))]
        lr = 0.05
        # alone, each epoch is staged whole: these sets are far below STAGE_ROWS
        alone = [
            nn.train_local(p, split, batch_size, epochs, lr, s)
            for p, split, s in zip(params, splits, seeds)
        ]
        with mock.patch.object(nn, "STAGE_ROWS", stage_rows):
            stacked = nn.train_cohort(params, splits, batch_size, epochs, lr, seeds)
        assert len(stacked) == len(alone)
        for got, expected in zip(stacked, alone):
            assert np.array_equal(got.gradient, expected.gradient)
            assert got.training_loss == expected.training_loss

    def test_one_split_and_seed_per_client(self):
        with pytest.raises(ValueError, match="one split and one seed per client"):
            nn.train_cohort([nn.init_params(1, LAYOUT)] * 2, [tiny_split()], 4, 1, 0.003, [1, 2])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_diverged_client_leaves_the_others_alone(self):
        blown = nn.ModelParams(np.full(LAYOUT.size, 1e308), LAYOUT)
        sane = nn.init_params(1, LAYOUT)
        diverged, report = nn.train_cohort([blown, sane], [tiny_split()] * 2, 4, 1, 0.003, [1, 2])
        assert not np.all(np.isfinite(diverged.gradient)) and math.isnan(diverged.training_loss)
        expected = nn.train_local(sane, tiny_split(), 4, 1, 0.003, 2)
        assert np.array_equal(report.gradient, expected.gradient)
        assert report.training_loss == expected.training_loss


class TestApplyGradient:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_result_is_non_finite_input(self, bad):
        params = nn.init_params(1, LAYOUT)
        with pytest.raises(NonFiniteInput, match="model parameters must be finite"):
            nn.apply_gradient(params, np.full(42, bad))

    def test_zero_is_identity(self):
        params = nn.init_params(1, LAYOUT)
        assert np.array_equal(nn.apply_gradient(params, np.zeros(42)).values, params.values)

    def test_additive_inverse_roundtrip(self):
        # dyadic values keep every intermediate sum exactly representable
        rng = np.random.default_rng(2)
        params = nn.ModelParams(rng.integers(-512, 512, size=42) / 1024.0, LAYOUT)
        g = rng.integers(-512, 512, size=42) / 1024.0
        back = nn.apply_gradient(nn.apply_gradient(params, g), -g)
        assert np.array_equal(back.values, params.values)

    def test_plain_arithmetic(self):
        layout = nn.Layout(1)
        params = nn.ModelParams(np.arange(7.0), layout)
        out = nn.apply_gradient(params, np.full(7, 0.5))
        assert np.array_equal(out.values, np.arange(7.0) + 0.5)

    def test_length_mismatch_rejected(self):
        params = nn.init_params(1, LAYOUT)
        with pytest.raises(ShapeMismatch):
            nn.apply_gradient(params, np.zeros(41))
