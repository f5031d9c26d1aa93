"""Small dense classifier trained with analytic backprop.

The model is the 2-``n_hidden``-2 network the 2D, two-class data calls for: a
sigmoid hidden layer and a softmax output. Its parameters live in one flat
float64 vector so that whole models and gradients can be exchanged, merged and
encrypted as plain vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import DatasetSplit, LabeledData
from .errors import EmptyDataset, InvalidLayout, NonFiniteInput, ShapeMismatch

# Adam's standard constants; every local training pass starts from fresh moments
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# rows of each client's shuffled epoch staged at a time, rounded down to whole batches
STAGE_ROWS = 4096


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
            raise NonFiniteInput("model parameters must be finite")


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
    """One client's training pass: ``train_cohort`` of a cohort of one."""
    [report] = train_cohort([params], [data], batch_size, epochs, learning_rate, [seed])
    return report


def train_cohort(
    params: list[ModelParams],
    splits: list[DatasetSplit],
    batch_size: int,
    epochs: int,
    learning_rate: float,
    seeds: list[int],
) -> list[TrainReport]:
    """Mini-batch cross-entropy training with Adam: client k trains from
    ``params[k]`` on ``splits[k].train``, in the batch order drawn from
    ``seeds[k]``, and all clients step together.

    Each report equals, bit for bit, the client's ``train_local``: the total
    weight delta (trained minus input weights) and the mean loss of a final
    full pass over the training set. A client whose training diverged gets its
    non-finite delta and a NaN loss; the others are independent of it.

    Clients whose training sets have one size form a group: each layer's
    ``[W | b]`` matrices are stacked on a leading client axis, so a step's
    forward pass and gradient take one 3-D matmul per layer, and Adam updates
    the (clients, size) buffer in place, per coordinate; the buffer is put
    back in the flat order once, at the end. Every client's slice goes through
    the same BLAS calls it would alone. Groups are by size,
    not padded with a masked tail, so every batch mean divides by and reduces
    over the rows the client alone would see. Each epoch's shuffled rows are
    staged about STAGE_ROWS per client at a time, so the working set does not
    grow with the training set.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if learning_rate < 0:
        raise ValueError("learning_rate must be >= 0")
    if not len(params) == len(splits) == len(seeds):
        raise ValueError("need one split and one seed per client")
    sizes = [len(s.train) for s in splits]
    if 0 in sizes:
        raise EmptyDataset("training set is empty")
    reports = {}
    for n in set(sizes):
        group = [k for k, size in enumerate(sizes) if size == n]
        trained = _train_group(
            [params[k] for k in group],
            [splits[k].train for k in group],
            batch_size,
            epochs,
            learning_rate,
            [seeds[k] for k in group],
        )
        reports.update(zip(group, trained))
    return [reports[k] for k in range(len(params))]


def _train_group(
    params: list[ModelParams],
    trains: list[LabeledData],
    batch_size: int,
    epochs: int,
    learning_rate: float,
    seeds: list[int],
) -> list[TrainReport]:
    """``train_cohort`` for clients whose training sets have one size."""
    layout = params[0].layout
    n_clients, n = len(params), len(trains[0])
    (n_in, n_hidden), (_, n_out) = layout.layers
    # flat index of every entry of the row-major [W | b] matrices
    order = np.concatenate(
        [np.column_stack(wb).ravel() for wb in layout.views(np.arange(layout.size))]
    )
    theta = np.stack([p.values[order] for p in params])
    grad = np.empty_like(theta)
    split_at = n_hidden * (n_in + 1)
    w1_t = theta[:, :split_at].reshape(n_clients, n_hidden, n_in + 1).transpose(0, 2, 1)
    w2 = theta[:, split_at:].reshape(n_clients, n_out, n_hidden + 1)
    w2_t, w2_weights = w2.transpose(0, 2, 1), w2[:, :, :n_hidden]
    g1 = grad[:, :split_at].reshape(n_clients, n_hidden, n_in + 1)
    g2 = grad[:, split_at:].reshape(n_clients, n_out, n_hidden + 1)

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    t = 0
    eta, b1, b2, eps = learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON

    # whole batches per chunk, so no batch straddles two chunks
    chunk = min(n, max(1, STAGE_ROWS // batch_size) * batch_size)
    # inputs and hidden activations carry a trailing 1 that meets the bias column
    xs = np.ones((n_clients, chunk, n_in + 1))
    ys = np.empty((n_clients, chunk, n_out))
    batch = min(batch_size, n)
    hidden = np.ones((n_clients, batch, n_hidden + 1))
    pre = np.empty((n_clients, batch, n_hidden))
    logits = np.empty((n_clients, batch, n_out))
    row_max = np.empty((n_clients, batch, 1))
    back = np.empty((n_clients, batch, n_hidden))

    def views(rows: int) -> tuple:
        """The buffers cut to a batch of ``rows``; with two outputs, a row's
        max and sum are one ufunc over its two columns."""
        h, d = hidden[:, :rows], logits[:, :rows]
        return (
            h, h[:, :, :n_hidden], pre[:, :rows], d, d[:, :, :1], d[:, :, 1:],
            row_max[:, :rows], d.transpose(0, 2, 1), back[:, :rows],
            back[:, :rows].transpose(0, 2, 1),
        )

    # every batch is whole but an epoch's last
    batch_views = {rows: views(rows) for rows in {batch, n % batch_size or batch}}
    one_hot = np.eye(n_out)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # exp(-z) overflows to inf below z = -709, and 1 / (1 + inf) is the right 0
    with np.errstate(over="ignore"):
        for _ in range(epochs):
            perms = [rng.permutation(n) for rng in rngs]
            for first in range(0, n, chunk):
                rows = min(chunk, n - first)
                for k, (train, perm) in enumerate(zip(trains, perms)):
                    picked = perm[first : first + rows]
                    xs[k, :rows, :n_in] = train.x[picked]
                    ys[k, :rows] = one_hot[train.y[picked]]
                for start in range(0, rows, batch_size):
                    stop = min(start + batch_size, rows)
                    h, s, z, d, d0, d1, mx, d_t, dz, dz_t = batch_views[stop - start]
                    x = xs[:, start:stop]
                    # s = 1 / (1 + exp(-(x @ W1^T)))
                    np.matmul(x, w1_t, out=z)
                    np.negative(z, out=z)
                    np.exp(z, out=z)
                    z += 1.0
                    np.divide(1.0, z, out=s)
                    # softmax minus one-hot, over the batch: the loss gradient at the logits
                    np.matmul(h, w2_t, out=d)
                    np.maximum(d0, d1, out=mx)
                    d -= mx
                    np.exp(d, out=d)
                    np.add(d0, d1, out=mx)
                    d /= mx
                    d -= ys[:, start:stop]
                    d /= stop - start
                    np.matmul(d_t, h, out=g2)
                    # dz = (d @ W2) * s * (1 - s), the gradient at the hidden pre-activations
                    np.matmul(d, w2_weights, out=dz)
                    dz *= s
                    np.subtract(1.0, s, out=z)
                    dz *= z
                    np.matmul(dz_t, x, out=g1)

                    t += 1
                    m *= b1
                    m += (1.0 - b1) * grad
                    v *= b2
                    v += (1.0 - b2) * grad * grad
                    theta -= eta * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)

    flat = np.empty_like(theta)
    flat[:, order] = theta
    reports = []
    for p, train, trained in zip(params, trains, flat):
        # The delta is the unit exchanged with the server, so the post-training
        # weights are defined as params + delta; reconstruction is then bit-exact.
        delta = trained - p.values
        values = p.values + delta
        diverged = not np.all(np.isfinite(values))
        loss = math.nan if diverged else evaluate(ModelParams(values, layout), train)[0]
        reports.append(TrainReport(gradient=delta, training_loss=loss))
    return reports


def apply_gradient(params: ModelParams, g: np.ndarray) -> ModelParams:
    """New parameters ``params + g``; lengths must match."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != params.values.shape:
        raise ShapeMismatch(f"gradient shape {g.shape} != params shape {params.values.shape}")
    return ModelParams(params.values + g, params.layout)
