"""Gaussian RBF dictionaries and design-matrix materialization.

Two regimes: centers drawn uniformly on a box with a fixed width (the
synthetic benchmark), and centers taken from the training samples with
width d_max / sqrt(2n) (real data).  Every atom is exp(-||x - t||^2 /
eta^2), so design entries always lie in (0, 1].
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DesignMatrix

# Center pairs per block of the d_max computation.
_PAIR_BLOCK = 2**16
# Entries per row block of evaluate_atoms' squared-norm sums: a small
# temporary instead of one of the design's size.
_ROW_BLOCK = 2**15


class BadRange(ValueError):
    """Invalid sampling range for dictionary centers."""


class DegenerateCenters(ValueError):
    """All candidate centers coincide, so the width heuristic is 0."""


@dataclass(frozen=True, eq=False)
class RbfSpec:
    """Gaussian RBF dictionary: (n, d) centers and a shared width eta."""

    centers: np.ndarray
    eta: float

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float)
        if centers.ndim == 1:
            centers = centers.reshape(-1, 1)
        if centers.shape[0] < 1:
            raise ValueError("at least one center required")
        if not np.isfinite(centers).all():
            raise ValueError("centers must be finite")
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        try:
            eta_sq = self.eta**2  # the divisor of evaluate_atoms
        except OverflowError:
            eta_sq = math.inf
        if not (self.eta > 0 and 0 < eta_sq < math.inf):
            raise ValueError(
                f"eta must be a positive real whose square is a positive finite float, "
                f"got {self.eta}"
            )

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


def build_rbf_uniform(n, low, high, eta, rng, d=1) -> RbfSpec:
    """n centers i.i.d. uniform on [low, high]^d."""
    if n < 1:
        raise BadRange("n must be >= 1")
    if not low < high:
        raise BadRange(f"need low < high, got [{low}, {high}]")
    centers = rng.uniform(low, high, size=(n, d))
    return RbfSpec(centers, eta)


def build_rbf_from_samples(train_inputs) -> RbfSpec:
    """Centers = training inputs, eta = d_max / sqrt(2n).

    d_max is the largest pairwise Euclidean distance among the centers;
    identical inputs make the heuristic degenerate.
    """
    centers = np.asarray(train_inputs, dtype=float)
    if centers.ndim == 1:
        centers = centers.reshape(-1, 1)
    if centers.shape[0] < 2:
        raise DegenerateCenters("need at least 2 training inputs")
    d_max = _max_distance(centers)
    if d_max <= 0:
        raise DegenerateCenters("all training inputs identical (d_max = 0)")
    n = centers.shape[0]
    return RbfSpec(centers, d_max / np.sqrt(2 * n))


def _max_distance(centers) -> float:
    """Largest pairwise Euclidean distance among the rows of ``centers``.

    Each squared distance is summed coordinate by coordinate in order,
    so it comes out bit for bit as the usual pairwise-distance routine
    (``pdist(centers).max()``, which tests compare against);
    ``(diff * diff).sum(axis=1)`` sums in another order.  A block of
    rows is compared with every later row, so a pair inside a block is
    seen twice, with the same value.
    """
    n, d = centers.shape
    step = max(1, _PAIR_BLOCK // n)
    best = 0.0
    for start in range(0, n - 1, step):
        rows, later = centers[start : start + step], centers[start + 1 :]
        diff = later[None, :, 0] - rows[:, None, 0]
        sq = diff * diff
        for j in range(1, d):
            diff = later[None, :, j] - rows[:, None, j]
            sq += diff * diff
        best = max(best, float(sq.max()))
    return float(np.sqrt(best))


def evaluate_atoms(spec: RbfSpec, inputs, indices=None) -> np.ndarray:
    """Evaluate atoms at the given inputs; entry (i, j) in (0, 1].

    ``indices`` restricts evaluation to a subset of atoms (in that
    order); None evaluates the whole dictionary.  The result is built
    in one fresh buffer: the cross term's product, then in place the
    squared distances ``(|x|^2 + |t|^2) - 2 x.t``, the clip at 0, the
    negation, the division by eta^2 and the exponential.  These are the
    IEEE operations of the plain expression, in its order, so every
    entry has its bits.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs.reshape(-1, 1)
    centers = spec.centers if indices is None else spec.centers[list(indices)]
    out = 2.0 * inputs @ centers.T
    input_sq = np.sum(inputs**2, axis=1)
    center_sq = np.sum(centers**2, axis=1)
    step = max(1, _ROW_BLOCK // max(1, centers.shape[0]))
    for start in range(0, out.shape[0], step):
        rows = out[start : start + step]
        np.subtract(input_sq[start : start + step, None] + center_sq[None, :], rows, out=rows)
    np.clip(out, 0.0, None, out=out)
    np.negative(out, out=out)
    out /= spec.eta**2
    np.exp(out, out=out)
    return out


def evaluate_design(spec: RbfSpec, inputs) -> DesignMatrix:
    """Materialize the raw design matrix of the dictionary on inputs.

    The fresh columns are frozen and handed over, so the design holds
    the only copy.
    """
    columns = evaluate_atoms(spec, inputs)
    columns.setflags(write=False)
    return DesignMatrix.from_columns(columns)


def normalize_columns(dm: DesignMatrix) -> DesignMatrix:
    """Scale every live column to unit empirical norm.

    The raw norms are retained as scale factors so coefficients can be
    mapped back to raw atoms and predictions are unaffected.  Dead
    columns are left untouched.  Idempotent.  The scaled columns are a
    fresh array handed over to the new design.
    """
    if dm.normalized:
        return dm
    scale = np.where(dm.live, dm.column_norms, 1.0)
    columns = dm.columns / scale
    columns.setflags(write=False)
    return DesignMatrix(columns, dm.column_norms, normalized=True)
