"""Shared domain types for greedy dictionary regression.

Everything here is plain data: datasets, materialized design matrices,
sparse models, and per-run fit reports.  All types are immutable after
construction (backing arrays are marked read-only) so they can be shared
freely across concurrent fits.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

# Columns with empirical norm below this are "dead": they are never
# selectable (normalizing them would divide by ~zero).
DEAD_COLUMN_NORM = 1e-12

# Termination reasons recorded by fits and reports.
NO_ACTIVE_ATOM = "no_active_atom"
RESIDUAL_RATIO = "residual_ratio"
FIXED_K = "fixed_k"
DICTIONARY_EXHAUSTED = "dictionary_exhausted"
ZERO_RESIDUAL = "zero_residual"
# Iterative dense solves: certified by their stop test, or out of budget.
CONVERGED = "converged"
MAX_ITER = "max_iter"


class NonFinite(ValueError):
    """A dataset entry is NaN or infinite."""


class LengthMismatch(ValueError):
    """Paired vectors have different lengths."""


class EmptyData(ValueError):
    """A dataset with zero samples."""


def _frozen_array(values, dtype=float, ndim=None):
    """A read-only array of ``values``, copied unless it is handed over.

    An array that is already read-only, owns its data and has the dtype
    is taken as it is: its maker has frozen it to hand it over, as
    evaluate_design and normalize_columns do with the arrays they make.
    Anything else, a writeable caller array in particular, is copied, so
    a later write to it does not reach the frozen one.
    """
    handed_over = (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.flags.owndata
        and not values.flags.writeable
    )
    arr = values if handed_over else np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired inputs (m, d) and scalar targets (m,)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=float)
        if inputs.ndim == 1:
            inputs = inputs.reshape(-1, 1)
        inputs.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", _frozen_array(self.targets, ndim=1))

    @property
    def m(self) -> int:
        return self.targets.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]


def validate_dataset(d: Dataset) -> Dataset:
    """Return ``d`` unchanged if its invariants hold, else raise.

    Raises EmptyData for zero samples, LengthMismatch when inputs and
    targets disagree in length, NonFinite on any NaN/Inf entry.
    """
    if d.m == 0 or d.inputs.shape[0] == 0:
        raise EmptyData("dataset has no samples")
    if d.inputs.shape[0] != d.targets.shape[0]:
        raise LengthMismatch(
            f"{d.inputs.shape[0]} inputs vs {d.targets.shape[0]} targets"
        )
    if not np.isfinite(d.inputs).all():
        raise NonFinite("non-finite input entry")
    if not np.isfinite(d.targets).all():
        raise NonFinite("non-finite target entry")
    return d


# Rows squared at a time by _sum_of_squares.
_NORM_BLOCK = 64


def _sum_of_squares(columns) -> np.ndarray:
    """Each column's sum of squares, added row after row as np.sum(columns**2, axis=0) does.

    Row 0 of a scratch block carries the running sum, from an exact 0,
    and the rows below it take the squares of the next rows, so no
    design-sized temporary is made.
    """
    m, n = columns.shape
    scratch = np.zeros((_NORM_BLOCK + 1, n))
    for start in range(0, m, _NORM_BLOCK):
        rows = columns[start : start + _NORM_BLOCK]
        block = scratch[: len(rows) + 1]
        np.multiply(rows, rows, out=block[1:])
        scratch[0] = np.add.reduce(block, axis=0)
    return scratch[0].copy()


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Atoms evaluated at the training inputs, one column per atom.

    ``column_norms`` always holds the empirical norms of the *raw*
    columns; when ``normalized`` is set the stored columns have been
    scaled to unit empirical norm and ``column_norms`` are the scale
    factors needed to map fitted coefficients back to the raw atoms.
    Columns with raw norm below DEAD_COLUMN_NORM are dead and never
    selectable.
    """

    columns: np.ndarray
    column_norms: np.ndarray
    normalized: bool = False
    live: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", _frozen_array(self.columns, ndim=2))
        object.__setattr__(
            self, "column_norms", _frozen_array(self.column_norms, ndim=1)
        )
        if self.column_norms.shape[0] != self.columns.shape[1]:
            raise LengthMismatch("one norm per column required")
        object.__setattr__(
            self, "live", _frozen_array(self.column_norms >= DEAD_COLUMN_NORM, bool)
        )

    @classmethod
    def from_columns(cls, columns) -> "DesignMatrix":
        """The raw design of ``columns``, which is copied unless it is handed over (_frozen_array)."""
        columns = _frozen_array(columns, ndim=2)
        norms = np.sqrt(_sum_of_squares(columns) / columns.shape[0])
        norms.setflags(write=False)
        return cls(columns, norms, normalized=False)

    @property
    def m(self) -> int:
        return self.columns.shape[0]

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Read-only G'G/m over every stored column, built on first use.

        It starts at a 64-byte boundary, so the speed of its products does
        not depend on where the allocator happened to put it.
        """
        n = self.n
        # 7 spare float64 reach the next 64-byte boundary from any 8-byte one
        buffer = np.empty(n * n + 7)
        start = -buffer.ctypes.data % 64 // buffer.itemsize
        gram = buffer[start : start + n * n].reshape(n, n)
        np.matmul(self.columns.T, self.columns, out=gram)
        gram /= self.m
        gram.setflags(write=False)
        return gram

    @functools.cached_property
    def lipschitz(self) -> float:
        """Largest eigenvalue of G'G/m by power iteration, inflated by 1.01; run on first use.

        The iteration runs on the live block of ``gram`` from a fixed
        seed.  The inflation keeps a 1/L gradient step safely inside the
        stable region despite the iteration's finite tolerance.
        """
        gram = self.gram[np.ix_(self.live, self.live)]
        if gram.shape[0] == 0:
            raise ValueError("no live columns")
        rng = np.random.default_rng(0)
        v = rng.standard_normal(gram.shape[0])
        v /= np.linalg.norm(v)
        lam_prev = 0.0
        for _ in range(1000):
            w = gram @ v
            lam = float(np.linalg.norm(w))
            if lam == 0.0:
                return 1.01e-30
            v = w / lam
            if abs(lam - lam_prev) <= 1e-6 * lam:
                break
            lam_prev = lam
        return 1.01 * lam

    def to_raw_coefficients(self, coefficients, selected=None) -> np.ndarray:
        """Rescale coefficients fitted on stored columns to the raw-atom basis."""
        coefficients = np.asarray(coefficients, dtype=float)
        if not self.normalized:
            return coefficients.copy()
        if selected is None:
            return coefficients / self.column_norms
        return coefficients / self.column_norms[list(selected)]


@dataclass(frozen=True, eq=False)
class SparseModel:
    """Ordered atom selection plus raw-atom coefficients.

    Selection order is preserved so prefix models (first k atoms with
    their own coefficients) can be rebuilt for k-sweeps.
    """

    selected: tuple
    coefficients: np.ndarray

    def __post_init__(self):
        selected = tuple(int(i) for i in self.selected)
        if len(set(selected)) != len(selected):
            raise ValueError("selected atom indices must be distinct")
        object.__setattr__(self, "selected", selected)
        object.__setattr__(
            self, "coefficients", _frozen_array(self.coefficients, ndim=1)
        )
        if len(selected) != self.coefficients.shape[0]:
            raise LengthMismatch("one coefficient per selected atom required")

    @property
    def sparsity(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class FitReport:
    """One benchmark row: a single (method, parameter, sigma, seed) run."""

    method: str
    parameter: float
    sigma: float | None
    seed: int
    test_rmse: float
    train_rmse: float
    sparsity: int
    iterations: int
    termination: str
    seconds: float
