"""Empirical-inner-product linear algebra.

All inner products and norms use the 1/m-weighted sample form, so
thresholds stay comparable across sample sizes.  The projection engine
is an incremental modified Gram-Schmidt QR under that inner product with
one reorthogonalization pass per appended column; each append costs
O(m*k) and keeps the residual orthogonal to the selected span to ~1e-8.
The same two passes, as matrix products over a block of columns, tell
which columns are clearly inside the span without appending any.
Triangular solves accumulate in ``np.longdouble`` and round once to
float64; where ``np.longdouble`` is float64 they are plain float64
back-substitutions.
"""

import bisect
from typing import NamedTuple

import numpy as np

from .core import LengthMismatch

# A column whose component orthogonal to the current span has empirical
# norm below this is treated as linearly dependent and must be skipped.
DEGENERATE_TOL = 1e-10

# Margin of clearly_degenerate, relative to a column's own norm.  The
# batched and per-column orthogonal norms of a column differ by rounding
# of order m * eps times its norm, far below this: at most 7.0e-17 over
# the 13,538 unit columns screened in the sinc-greedy benchmark sweeps
# of seeds 0-5.
SCREEN_RTOL = 1e-12


class NonPositiveBound(ValueError):
    """Truncation bound M must be positive."""


class DegenerateColumn(ArithmeticError):
    """Appended column is numerically inside the current span."""


class SingularFactor(ArithmeticError):
    """Triangular factor has a ~zero diagonal entry."""


def empirical_inner(f_vals, g_vals) -> float:
    """(1/m) * sum_i f(x_i) g(x_i)."""
    f_vals = np.asarray(f_vals, dtype=float)
    g_vals = np.asarray(g_vals, dtype=float)
    if f_vals.shape != g_vals.shape:
        raise LengthMismatch(f"{f_vals.shape} vs {g_vals.shape}")
    return float(f_vals @ g_vals) / f_vals.shape[0]


def empirical_norm(f_vals) -> float:
    f_vals = np.asarray(f_vals, dtype=float)
    # np.mean's sum and division, without its Python wrapper
    return float(np.sqrt(np.add.reduce(f_vals * f_vals, axis=None) / f_vals.size))


def check_target(y) -> float:
    """The empirical norm of a fit's target; raises unless it is finite and positive."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error raised
        y_norm = empirical_norm(y)
    if not 0 < y_norm < np.inf:
        raise ValueError(f"target norm must be finite and positive, got {y_norm:g}")
    return y_norm


def rmse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise LengthMismatch(f"{pred.shape} vs {truth.shape}")
    return empirical_norm(pred - truth)


def truncate_values(values, bound: float, out=None) -> np.ndarray:
    """Elementwise truncation of predictions, written into ``out`` when given."""
    if bound <= 0:
        raise NonPositiveBound(f"bound must be positive, got {bound}")
    return np.clip(np.asarray(values, dtype=float), -bound, bound, out=out)


class Append(NamedTuple):
    """What one append produced: basis column, triangular-factor column, residual and its norm."""

    q_col: np.ndarray
    r_col: np.ndarray
    residual: np.ndarray
    residual_norm: float


class ProjectionState:
    """Incremental orthogonal projection of a fixed target vector y.

    Keeps its own copy of the target as ``y``, an empirically
    orthonormal basis of the appended columns, the upper triangular
    factor mapping those raw columns onto it, and the residual y minus
    its projection onto the selected span.  Single owner: one fit
    mutates it via project_append, and its trace keeps it for prefix
    solves; distinct fits never share a state.
    """

    def __init__(self, y):
        y = np.array(y, dtype=float)
        if y.ndim != 1 or y.shape[0] == 0:
            raise ValueError("y must be a nonempty vector")
        self.y = y
        self.m = y.shape[0]
        self.k = 0
        cap = 8
        self._q = np.zeros((self.m, cap))
        self._r = np.zeros((cap, cap))
        self.residual = y
        self.residual_norm = empirical_norm(y)

    def last_append(self) -> Append:
        """The results of the latest append, as replay_append takes them.

        The basis and factor columns are copies; the residual is shared,
        which is safe because appends rebind it and never write into it.
        """
        k = self.k - 1
        return Append(
            self._q[:, k].copy(), self._r[: k + 1, k].copy(), self.residual, self.residual_norm
        )

    def _grow(self):
        cap = self._q.shape[1]
        if self.k < cap:
            return
        new_cap = min(2 * cap, max(self.m, cap + 1))
        q = np.zeros((self.m, new_cap))
        q[:, :cap] = self._q
        r = np.zeros((new_cap, new_cap))
        r[:cap, :cap] = self._r
        self._q, self._r = q, r


def project_append(state: ProjectionState, column) -> ProjectionState:
    """Orthogonalize ``column`` against the basis and absorb it.

    Rebinds the residual (never writing into it, so ``state.y`` stays
    the target) and updates its norm; returns the state.
    Raises DegenerateColumn (state untouched) when the column's
    orthogonal component has empirical norm below DEGENERATE_TOL; the
    caller should skip the atom.
    """
    column = np.asarray(column, dtype=float)
    if column.shape != (state.m,):
        raise LengthMismatch(f"column shape {column.shape}, expected ({state.m},)")
    k, m = state.k, state.m
    q = state._q[:, :k]
    head = (q.T @ column) / m
    w = column - q @ head
    # Second pass restores orthogonality lost to cancellation.
    corr = (q.T @ w) / m
    w -= q @ corr
    head += corr
    w_norm = empirical_norm(w)
    if w_norm < DEGENERATE_TOL:
        raise DegenerateColumn(f"orthogonal component norm {w_norm:.3e}")
    new_q = w / w_norm
    coef = empirical_inner(new_q, state.residual)
    residual = state.residual - coef * new_q
    return replay_append(
        state, Append(new_q, np.append(head, w_norm), residual, empirical_norm(residual))
    )


def orthogonal_norms(state: ProjectionState, columns) -> np.ndarray:
    """Empirical norms of the components of ``columns`` orthogonal to the basis.

    The two-pass Gram-Schmidt of project_append for every column at
    once, as matrix products; each norm agrees with the one
    project_append computes up to rounding.
    """
    columns = np.asarray(columns, dtype=float)
    if columns.ndim != 2 or columns.shape[0] != state.m:
        raise LengthMismatch(f"columns shape {columns.shape}, expected ({state.m}, b)")
    q = state._q[:, : state.k]
    head = (q.T @ columns) / state.m
    w = columns - q @ head
    w -= q @ ((q.T @ w) / state.m)
    return np.sqrt(np.einsum("ij,ij->j", w, w) / state.m)


def clearly_degenerate(state: ProjectionState, columns) -> np.ndarray:
    """Which of ``columns`` project_append would reject, decided in one batched pass.

    A column is flagged only when its orthogonal_norms value is below
    DEGENERATE_TOL/2 by more than SCREEN_RTOL times its own empirical
    norm, far beyond the rounding by which the batched and the
    per-column norms differ; so a flagged column is degenerate for
    project_append too, while one near the tolerance is not flagged and
    is left to project_append to decide.
    """
    columns = np.asarray(columns, dtype=float)
    scale = np.sqrt(np.einsum("ij,ij->j", columns, columns) / state.m)
    return orthogonal_norms(state, columns) < DEGENERATE_TOL / 2 - SCREEN_RTOL * scale


def replay_append(state: ProjectionState, append: Append) -> ProjectionState:
    """Write the results of one append into the state; the last step of project_append.

    Given what ``state.last_append()`` read after appending a column
    onto the same basis, it leaves the state bit for bit as
    project_append did, in O(m) rather than O(m*k).
    """
    state._grow()
    k = state.k
    state._q[:, k] = append.q_col
    state._r[: k + 1, k] = append.r_col
    state.k = k + 1
    state.residual = append.residual
    state.residual_norm = append.residual_norm
    return state


def _back_substitute(r, z, lengths) -> np.ndarray:
    """Solve r[:k, :k] x = z[p, :k] for every row p of z, with k = lengths[p], in long double.

    ``r`` is upper triangular, ``lengths`` is nondecreasing and each row
    of z is zero past its length.  Column-oriented back-substitution:
    row i of r updates only the systems longer than i, so each system's
    arithmetic is the same however many others ride along.  Returns the
    solutions as the rows of a long-double array, zero past their length.
    """
    x = np.array(z, dtype=np.longdouble)
    r_cols = np.array(r.T, dtype=np.longdouble)  # row i is column i of r, contiguous
    for i in range(r_cols.shape[0] - 1, -1, -1):
        rows = x[bisect.bisect_right(lengths, i) :]
        xi = rows[:, i : i + 1]
        xi /= r_cols[i, i : i + 1]
        rows[:, :i] -= xi * r_cols[i, :i]
    return x


def solve_coefficients(state: ProjectionState, ks=None) -> list:
    """Least-squares coefficients of the state's target over each prefix of its columns.

    ``ks`` lists nondecreasing prefix lengths (default: all columns,
    ``[state.k]``); the result holds one coefficient vector per entry.
    Each vector minimizes the empirical norm of y minus the span
    combination of its first k columns, solved through the leading
    k-by-k triangular block against that prefix's own Q'y/m.  All
    prefixes are solved in one pass, each bit for bit as if alone.
    """
    ks = [state.k] if ks is None else [int(k) for k in ks]
    if not ks or ks != sorted(ks) or not 1 <= ks[0] <= ks[-1] <= state.k:
        raise ValueError(f"prefix lengths must be nondecreasing in [1, {state.k}], got {ks}")
    r = state._r[: ks[-1], : ks[-1]]
    if np.abs(np.diag(r)).min() < DEGENERATE_TOL:
        raise SingularFactor("triangular factor is numerically singular")
    z = np.zeros((len(ks), ks[-1]))
    for row, k in enumerate(ks):
        z[row, :k] = (state._q[:, :k].T @ state.y) / state.m
    x = _back_substitute(r, z, ks).astype(float)
    return [x[row, :k] for row, k in enumerate(ks)]


def cholesky_solve(a, b) -> np.ndarray:
    """Solve a x = b for symmetric positive definite ``a`` by its Cholesky factor.

    Raises np.linalg.LinAlgError when ``a`` is not positive definite.
    The lower solve L w = b is the upper solve on L with its rows and
    columns reversed; w stays in long double for the solve with L'.
    """
    low = np.linalg.cholesky(a)
    n = low.shape[0]
    b = np.asarray(b, dtype=float)
    w = _back_substitute(low[::-1, ::-1], b[None, ::-1], [n])[:, ::-1]
    return _back_substitute(low.T, w, [n])[0].astype(float)
