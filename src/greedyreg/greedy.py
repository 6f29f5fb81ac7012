"""Atom-selection criteria.

A criterion ranks atoms by the normalized correlation
|<r, g>_m| / ||r||_m (the cosine of the angle between residual and atom
when columns have unit empirical norm).  Thresholded criteria restrict
the candidate pool to atoms whose correlation strictly exceeds delta;
the "first" criterion scans in dictionary order and stops at the first
atom above threshold, which is what makes large dictionaries cheap.
"""

from dataclasses import dataclass

import numpy as np

from .core import DesignMatrix

CRITERION_KINDS = ("max", "max2", "max3", "rand", "first")
_RANK = {"max": 1, "max2": 2, "max3": 3}

# Atoms scanned per block in the first-above-threshold path: large
# enough to amortize numpy overhead, small enough to keep the early
# exit cheap.
_SCAN_BLOCK = 256


class ZeroResidual(ArithmeticError):
    """Correlations are undefined for a zero residual."""


def validate_delta(delta: float) -> float:
    """Accept delta in (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return float(delta)


@dataclass(frozen=True)
class Criterion:
    """Selection rule: kind in {max, max2, max3, rand, first}.

    delta=None means unthresholded; "first" always requires a delta.
    """

    kind: str
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "first" and self.delta is None:
            raise ValueError("'first' criterion requires a threshold")
        if self.delta is not None:
            validate_delta(self.delta)

    @property
    def thresholded(self) -> bool:
        return self.delta is not None


def correlation(residual, residual_norm: float, column) -> float:
    """|<residual, column>_m| / ||residual||_m."""
    if residual_norm <= 0:
        raise ZeroResidual("residual norm must be positive")
    residual = np.asarray(residual, dtype=float)
    column = np.asarray(column, dtype=float)
    return abs(float(residual @ column)) / (residual.shape[0] * residual_norm)


def all_correlations(dm: DesignMatrix, residual, residual_norm: float) -> np.ndarray:
    """Correlation of the residual with every column (dead columns get 0)."""
    if residual_norm <= 0:
        raise ZeroResidual("residual norm must be positive")
    corr = np.abs(dm.columns.T @ residual) / (dm.m * residual_norm)
    corr[~dm.live] = 0.0
    return corr


def _as_mask(excluded, n: int) -> np.ndarray:
    if excluded is None:
        return np.zeros(n, dtype=bool)
    excluded = np.asarray(excluded)
    if excluded.dtype == bool:
        return excluded
    mask = np.zeros(n, dtype=bool)
    mask[excluded.astype(int)] = True
    return mask


def select_atom(
    dm: DesignMatrix,
    residual,
    residual_norm: float,
    criterion: Criterion,
    excluded=None,
    rng=None,
):
    """Pick the next atom index, or None when no candidate remains.

    Candidates are live, non-excluded atoms; thresholded criteria keep
    only those with correlation strictly above delta.  Ranked kinds take
    the 1st/2nd/3rd largest correlation (ties to the lower index),
    falling back to the last candidate when the pool is smaller than the
    rank.  "rand" draws uniformly from the pool; "first" returns the
    lowest-index atom above threshold without scanning the rest.
    """
    if residual_norm <= 0:
        raise ZeroResidual("residual norm must be positive")
    mask = _as_mask(excluded, dm.n)

    if criterion.kind == "first":
        return _first_above(dm, residual, residual_norm, criterion.delta, mask)

    corr = all_correlations(dm, residual, residual_norm)
    eligible = dm.live & ~mask
    if criterion.thresholded:
        eligible &= corr > criterion.delta
    candidates = np.flatnonzero(eligible)
    if candidates.size == 0:
        return None

    if criterion.kind == "rand":
        if rng is None:
            raise ValueError("'rand' criterion requires an rng")
        return int(rng.choice(candidates))

    rank = _RANK[criterion.kind]
    # Stable sort on -corr: descending values, ties by ascending index.
    order = candidates[np.argsort(-corr[candidates], kind="stable")]
    return int(order[min(rank, order.size) - 1])


def _first_above(dm, residual, residual_norm, delta, mask):
    residual = np.asarray(residual, dtype=float)
    scale = dm.m * residual_norm
    for start in range(0, dm.n, _SCAN_BLOCK):
        stop = min(start + _SCAN_BLOCK, dm.n)
        corr = np.abs(dm.columns[:, start:stop].T @ residual) / scale
        ok = (corr > delta) & dm.live[start:stop] & ~mask[start:stop]
        hits = np.flatnonzero(ok)
        if hits.size:
            return int(start + hits[0])
    return None
