"""Synthetic 2D Gaussian datasets, train/validation/test splits, label poisoning.

Each federated client owns one dataset sampled from a mixture of labelled
Gaussian clusters, so two clients with different cluster geometry give a
controllable Non-IID setup.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset


def _finite_array(value, shape: tuple) -> np.ndarray | None:
    """``value`` as a float array when it nests finite real numbers to
    ``shape``, else None. numpy alone would read strings such as "-2" and
    booleans as numbers, and fail on integers beyond float range."""
    cells = np.array(value, dtype=object)
    if cells.shape == shape and all(
        isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max
        for x in cells.flat
    ):
        return cells.astype(float)
    return None


@dataclass(frozen=True)
class GaussianSpec:
    """One labelled cluster: 2D mean, 2x2 covariance, class label, sample count."""

    mean: tuple[float, float]
    covariance: tuple[tuple[float, float], tuple[float, float]]
    label: int
    count: int

    def __post_init__(self):
        if _finite_array(self.mean, (2,)) is None:
            raise ValueError(f"mean must be 2 finite numbers, got {self.mean}")
        cov = _finite_array(self.covariance, (2, 2))
        if cov is None or not np.allclose(cov, cov.T):
            raise ValueError(f"covariance must be 2x2 finite symmetric, got {self.covariance}")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError(f"covariance must be positive-definite, got {self.covariance}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        # the largest dimension numpy takes; json reads integers of any size
        if not 0 <= self.count <= np.iinfo(np.intp).max:
            raise ValueError(f"count must lie in [0, {np.iinfo(np.intp).max}], got {self.count}")


@dataclass
class LabeledData:
    """Feature matrix (n, 2) with integer labels (n,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.x.shape[1] != 2 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError(f"inconsistent shapes x={self.x.shape} y={self.y.shape}")

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, idx: np.ndarray) -> "LabeledData":
        return LabeledData(self.x[idx], self.y[idx])

    @staticmethod
    def concat(parts: list["LabeledData"]) -> "LabeledData":
        return LabeledData(
            np.concatenate([p.x for p in parts]), np.concatenate([p.y for p in parts])
        )


@dataclass
class DatasetSplit:
    """Disjoint train/validation/test parts of one client dataset."""

    train: LabeledData
    validation: LabeledData
    test: LabeledData


def generate_client_dataset(specs: list[GaussianSpec], seed: int) -> LabeledData:
    """Sample every cluster spec with one seeded generator; deterministic per seed.

    Samples are drawn as ``mean + L z`` where ``L`` is the Cholesky factor of the
    covariance and ``z`` is standard normal.
    """
    if not specs:
        raise EmptyDataset("no cluster specs given")
    if sum(s.count for s in specs) == 0:
        raise EmptyDataset("all cluster counts are zero")
    for lbl in (0, 1):
        if not any(s.label == lbl and s.count > 0 for s in specs):
            raise EmptyDataset(f"no samples for label {lbl}")
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for spec in specs:
        chol = np.linalg.cholesky(np.asarray(spec.covariance, dtype=float))
        z = rng.standard_normal((spec.count, 2))
        xs.append(z @ chol.T + np.asarray(spec.mean, dtype=float))
        ys.append(np.full(spec.count, spec.label, dtype=np.int64))
    return LabeledData(np.concatenate(xs), np.concatenate(ys))


def split(
    dataset: LabeledData, train_frac: float, val_frac_of_train: float, seed: int
) -> DatasetSplit:
    """Shuffle once, hold out ``round((1-train_frac)*n)`` test samples, then carve
    ``val_frac_of_train`` of the remaining training portion as validation."""
    if not (0 < train_frac < 1) or not (0 < val_frac_of_train < 1):
        raise ValueError(
            f"fractions must lie in (0,1), got train_frac={train_frac} "
            f"val_frac_of_train={val_frac_of_train}"
        )
    n = len(dataset)
    perm = np.random.default_rng(seed).permutation(n)
    n_test = int(round((1 - train_frac) * n))
    n_train_portion = n - n_test
    n_val = int(round(val_frac_of_train * n_train_portion))
    parts = {
        "test": perm[:n_test],
        "validation": perm[n_test : n_test + n_val],
        "train": perm[n_test + n_val :],
    }
    for name, idx in parts.items():
        if idx.size == 0:
            raise EmptyDataset(f"{name} part is empty for n={n}")
    return DatasetSplit(
        train=dataset.subset(parts["train"]),
        validation=dataset.subset(parts["validation"]),
        test=dataset.subset(parts["test"]),
    )


def poison_labels(dataset: LabeledData, flip_frac: float, seed: int) -> LabeledData:
    """Flip the labels of exactly ``round(flip_frac*n)`` samples; features untouched."""
    if not (0 <= flip_frac <= 1):
        raise ValueError(f"flip_frac must lie in [0,1], got {flip_frac}")
    n = len(dataset)
    n_flip = int(round(flip_frac * n))
    idx = np.random.default_rng(seed).permutation(n)[:n_flip]
    y = dataset.y.copy()
    y[idx] = 1 - y[idx]
    return LabeledData(dataset.x, y)
