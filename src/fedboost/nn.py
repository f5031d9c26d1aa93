"""Small dense classifier trained with analytic backprop.

The model is the 2-``n_hidden``-2 network the 2D, two-class data calls for: a
sigmoid hidden layer and a softmax output. Its parameters live in one flat
float64 vector so that whole models and gradients can be exchanged, merged and
encrypted as plain vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import DatasetSplit, LabeledData
from .errors import EmptyDataset, InvalidLayout, NonFiniteInput, ShapeMismatch

# Adam's standard constants; every local training pass starts from fresh moments
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class Layout:
    """Two inputs, ``n_hidden`` sigmoid units, two softmax outputs. Each layer
    owns fan_out*fan_in weights plus fan_out biases, packed in that order into
    the flat vector."""

    n_hidden: int

    def __post_init__(self):
        if isinstance(self.n_hidden, bool) or not isinstance(self.n_hidden, int) or self.n_hidden < 1:
            raise InvalidLayout(f"n_hidden must be an int >= 1, got {self.n_hidden!r}")

    @property
    def layers(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Per-layer (fan_in, fan_out) pairs."""
        return (2, self.n_hidden), (self.n_hidden, 2)

    @property
    def size(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layers)

    def views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views into ``flat``; writes through to the vector."""
        if flat.shape != (self.size,):
            raise ShapeMismatch(f"expected {self.size} values, got {flat.shape}")
        out, offset = [], 0
        for fan_in, fan_out in self.layers:
            w = flat[offset : offset + fan_in * fan_out].reshape(fan_out, fan_in)
            offset += fan_in * fan_out
            b = flat[offset : offset + fan_out]
            offset += fan_out
            out.append((w, b))
        return out


@dataclass
class ModelParams:
    """Flat parameter vector plus the layout needed to interpret it."""

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.layout.size,):
            raise ShapeMismatch(
                f"layout wants {self.layout.size} values, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("model parameters must be finite")


@dataclass
class TrainReport:
    """Weight delta produced by one local training pass plus the post-training
    mean cross-entropy over the full local training set."""

    gradient: np.ndarray
    training_loss: float


def init_params(seed: int, layout: Layout) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases; seeded."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(layout.size)
    for w, _b in layout.views(flat):
        bound = 1.0 / np.sqrt(w.shape[1])
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return ModelParams(flat, layout)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Output logits, one row per input row."""
    (w1, b1), (w2, b2) = params.layout.views(params.values)
    return _sigmoid(x @ w1.T + b1) @ w2.T + b2


def forward(params: ModelParams, x) -> np.ndarray:
    """Class probabilities for a single input point."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (2,):
        raise ShapeMismatch(f"expected input of shape (2,), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("inputs must be finite")
    return np.exp(_log_softmax(_logits(params, x[None, :])))[0]


def evaluate(params: ModelParams, data: LabeledData) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy over a labelled set."""
    if len(data) == 0:
        raise EmptyDataset("cannot evaluate on an empty set")
    logp = _log_softmax(_logits(params, data.x))
    loss = -logp[np.arange(len(data)), data.y].mean()
    accuracy = float((logp.argmax(axis=1) == data.y).mean())
    return float(loss), accuracy


def train_local(
    params: ModelParams,
    data: DatasetSplit,
    batch_size: int,
    epochs: int,
    learning_rate: float,
    seed: int,
) -> TrainReport:
    """Mini-batch cross-entropy training with Adam on ``data.train``.

    Batch order is drawn from a generator seeded with ``seed``, so the result is
    bit-reproducible. Returns the total weight delta (trained minus input
    weights) and the mean loss of a final full pass over the training set.

    The step is fused for two layers: each layer is held as one ``[W | b]``
    matrix, so its forward pass and its gradient take one matmul each, and Adam
    updates that buffer in place, per coordinate; the buffer is put back in the
    flat order once, at the end.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if learning_rate < 0:
        raise ValueError("learning_rate must be >= 0")
    layout = params.layout
    train = data.train
    n = len(train)
    if n == 0:
        raise EmptyDataset("training set is empty")

    (n_in, n_hidden), (_, n_out) = layout.layers
    # flat index of every entry of the row-major [W | b] matrices
    order = np.concatenate(
        [np.column_stack(wb).ravel() for wb in layout.views(np.arange(layout.size))]
    )
    theta = params.values[order]
    grad = np.empty_like(theta)
    split_at = n_hidden * (n_in + 1)
    w1_t = theta[:split_at].reshape(n_hidden, n_in + 1).T
    w2 = theta[split_at:].reshape(n_out, n_hidden + 1)
    w2_t, w2_weights = w2.T, w2[:, :n_hidden]
    g1 = grad[:split_at].reshape(n_hidden, n_in + 1)
    g2 = grad[split_at:].reshape(n_out, n_hidden + 1)

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    t = 0
    eta, b1, b2, eps = learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON

    # inputs and hidden activations carry a trailing 1 that meets the bias column
    hidden = np.ones((min(batch_size, n), n_hidden + 1))
    one_hot = np.eye(n_out)
    rng = np.random.default_rng(seed)
    # exp(-z) overflows to inf below z = -709, and 1 / (1 + inf) is the right 0
    with np.errstate(over="ignore"):
        for _ in range(epochs):
            perm = rng.permutation(n)
            xs = np.ones((n, n_in + 1))
            xs[:, :n_in] = train.x[perm]
            ys = one_hot[train.y[perm]]
            for start in range(0, n, batch_size):
                x = xs[start : start + batch_size]
                h = hidden[: len(x)]
                s = h[:, :n_hidden]
                np.divide(1.0, 1.0 + np.exp(-(x @ w1_t)), out=s)
                # softmax minus one-hot, over the batch: the loss gradient at the logits
                d = h @ w2_t
                d -= d.max(axis=1, keepdims=True)
                np.exp(d, out=d)
                d /= d.sum(axis=1, keepdims=True)
                d -= ys[start : start + batch_size]
                d /= len(x)
                np.matmul(d.T, h, out=g2)
                np.matmul(((d @ w2_weights) * s * (1.0 - s)).T, x, out=g1)

                t += 1
                m *= b1
                m += (1.0 - b1) * grad
                v *= b2
                v += (1.0 - b2) * grad * grad
                theta -= eta * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)

    flat = np.empty_like(theta)
    flat[order] = theta
    # The delta is the unit exchanged with the server, so the post-training
    # weights are defined as params + delta; reconstruction is then bit-exact.
    delta = flat - params.values
    final_loss, _ = evaluate(ModelParams(params.values + delta, layout), train)
    return TrainReport(gradient=delta, training_loss=final_loss)


def apply_gradient(params: ModelParams, g: np.ndarray) -> ModelParams:
    """New parameters ``params + g``; lengths must match."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != params.values.shape:
        raise ShapeMismatch(f"gradient shape {g.shape} != params shape {params.values.shape}")
    return ModelParams(params.values + g, params.layout)
