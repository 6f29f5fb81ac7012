"""Benchmark data: synthetic sinc regression and numeric CSV ingestion.

The synthetic task draws inputs uniformly on [-pi, pi], adds Gaussian
noise to sin(x)/x on the training side, and keeps test targets
noiseless.  Real datasets come in as plain numeric CSV and are z-scored
(population standard deviation, fitted on the training half only).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .core import Dataset, validate_dataset


class ParseError(ValueError):
    """CSV cell failed to parse; carries 1-based row/column location."""

    def __init__(self, row: int, column: int, detail: str):
        super().__init__(f"row {row}, column {column}: {detail}")
        self.row = row
        self.column = column


class MissingTarget(ValueError):
    """Designated target column does not exist."""


class EmptyFile(ValueError):
    """CSV contains no data rows."""


def sinc(x) -> np.ndarray:
    """sin(x)/x with the removable singularity filled: sinc(0) = 1."""
    x = np.asarray(x, dtype=float)
    return np.sinc(x / np.pi)


def gen_sinc(m_train: int, m_test: int, sigma: float, rng) -> tuple:
    """Train/test pair for the sinc target at one noise level.

    Train targets are sinc(x) + N(0, sigma^2); test targets are exact.
    """
    if m_train < 1 or m_test < 1:
        raise ValueError("m_train and m_test must be >= 1")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    x_train = rng.uniform(-np.pi, np.pi, size=m_train)
    noise = rng.normal(0.0, sigma, size=m_train) if sigma > 0 else np.zeros(m_train)
    y_train = sinc(x_train) + noise
    x_test = rng.uniform(-np.pi, np.pi, size=m_test)
    y_test = sinc(x_test)
    train = Dataset(x_train.reshape(-1, 1), y_train)
    test = Dataset(x_test.reshape(-1, 1), y_test)
    return train, test


def load_csv(path, target_column="last", header: bool = True) -> Dataset:
    """Numeric CSV -> Dataset; one designated column is the target.

    target_column: "last", a 0-based integer index, or (with a header)
    a column name.  NaN or infinite cells raise NonFinite.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    names = None
    if header:
        if not rows:
            raise EmptyFile(str(path))
        names = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
    if not rows:
        raise EmptyFile(str(path))

    width = len(rows[0])
    if isinstance(target_column, str) and target_column != "last":
        if names is None or target_column not in names:
            raise MissingTarget(f"no column named {target_column!r}")
        target_idx = names.index(target_column)
    elif target_column == "last":
        target_idx = width - 1
    else:
        target_idx = int(target_column)
        if not 0 <= target_idx < width:
            raise MissingTarget(f"target index {target_idx} out of range 0..{width - 1}")

    values = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(i + 1 + int(header), len(row) + 1, "ragged row")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    i + 1 + int(header), j + 1, f"not numeric: {cell.strip()!r}"
                ) from None
    targets = values[:, target_idx]
    features = np.delete(values, target_idx, axis=1)
    if features.shape[1] == 0:
        raise MissingTarget("file has a target but no feature columns")
    return validate_dataset(Dataset(features, targets))


@dataclass(frozen=True, eq=False)
class ZScoreParams:
    """Per-feature and target location/scale fitted on training data.

    Population (1/m) standard deviation, matching the empirical-norm
    convention used everywhere else; constant columns keep std pinned
    to 1 so they transform to zero.
    """

    feature_means: np.ndarray
    feature_stds: np.ndarray
    target_mean: float
    target_std: float


def _safe_std(std):
    return np.where(std > 0, std, 1.0)


def zscore_fit_apply(train: Dataset, test: Dataset):
    """Standardize features and target of both sets with train statistics."""
    if train.m == 0:
        raise ValueError("train set is empty")
    mu = train.inputs.mean(axis=0)
    sd = _safe_std(train.inputs.std(axis=0))
    t_mu = float(train.targets.mean())
    t_sd = float(_safe_std(np.array(train.targets.std())))
    params = ZScoreParams(mu, sd, t_mu, t_sd)

    def apply(ds: Dataset) -> Dataset:
        return Dataset((ds.inputs - mu) / sd, (ds.targets - t_mu) / t_sd)

    return apply(train), apply(test), params


def split_half(dataset: Dataset, rng):
    """Random disjoint split: first ceil(m/2) samples train, rest test."""
    m = dataset.m
    if m < 2:
        raise ValueError("need at least 2 samples to split")
    perm = rng.permutation(m)
    cut = (m + 1) // 2
    train_idx, test_idx = perm[:cut], perm[cut:]
    train = Dataset(dataset.inputs[train_idx], dataset.targets[train_idx])
    test = Dataset(dataset.inputs[test_idx], dataset.targets[test_idx])
    return train, test
