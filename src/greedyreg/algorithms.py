"""Greedy fitting schemes over a materialized design matrix.

Four loops share the same ingredients: pick an atom (greedy criterion),
absorb it (orthogonal projection for the OGL family, a single
correlation-scaled step for pure greedy), stop per a termination rule.
Every fit records a full trace so one run yields the model at every
prefix length k for parameter sweeps; an orthogonal fit's trace is its
QR factor, solved for a prefix's coefficients only when one is read.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    DICTIONARY_EXHAUSTED,
    FIXED_K,
    NO_ACTIVE_ATOM,
    RESIDUAL_RATIO,
    ZERO_RESIDUAL,
    DesignMatrix,
    SparseModel,
)
from .dictionary import RbfSpec, evaluate_atoms
from .greedy import Criterion, correlation, select_atom, validate_delta
from .linalg import (
    DegenerateColumn,
    ProjectionState,
    empirical_norm,
    project_append,
    solve_coefficients,
    truncate_values,
)

# Residuals below this fraction of the target norm count as exactly fit.
ZERO_RESIDUAL_RTOL = 1e-12


class IndexOutOfRange(IndexError):
    """Model references an atom index outside the dictionary."""


@dataclass
class FitTrace:
    """Per-iteration record of a greedy fit.

    ``selected`` holds the atom chosen at each successful iteration (pure
    greedy may repeat atoms).  Projection fits keep their design and QR
    factor (``dm``, ``state``, which holds the target), from which the
    coefficients of any prefix are solved when read; additive fits leave
    ``state`` None and store the scalar raw-atom increment per step.
    ``iterations`` counts selection attempts including degenerate
    columns that were skipped.
    """

    selected: list
    increments: list | None
    residual_norms: list
    selected_correlations: list
    termination_reason: str
    iterations: int
    dm: DesignMatrix | None = None
    state: ProjectionState | None = None

    @property
    def k_fitted(self) -> int:
        return len(self.selected)

    def prefix_model(self, k: int) -> SparseModel:
        """Model after the first k iterations (k clamped to the trace)."""
        k = min(k, self.k_fitted)
        if k <= 0:
            return SparseModel((), np.zeros(0))
        if self.state is not None:
            selected = self.selected[:k]
            coefs = solve_coefficients(self.state, k)
            return SparseModel(tuple(selected), self.dm.to_raw_coefficients(coefs, selected))
        atoms, coefs = [], []
        position = {}
        for idx, inc in zip(self.selected[:k], self.increments[:k]):
            if idx in position:
                coefs[position[idx]] += inc
            else:
                position[idx] = len(atoms)
                atoms.append(idx)
                coefs.append(inc)
        return SparseModel(tuple(atoms), np.array(coefs))

    def final_model(self) -> SparseModel:
        return self.prefix_model(self.k_fitted)


def _check_target(y) -> float:
    y_norm = empirical_norm(y)
    if y_norm <= 0:
        raise ValueError("target norm must be positive")
    return y_norm


def _fit_projection(dm, y, criterion, k_cap, ratio_delta=None, rng=None):
    """Shared OGL-family loop and the one stop rule; k_cap and ratio_delta select its clauses."""
    if k_cap is not None and not 1 <= k_cap <= dm.n:
        raise ValueError(f"k_max must be in [1, {dm.n}], got {k_cap}")
    y_norm = _check_target(y)
    state = ProjectionState(y)
    excluded = np.zeros(dm.n, dtype=bool)
    selected = []
    residual_norms, selected_corrs = [], []
    attempts = 0
    while True:
        if state.residual_norm < ZERO_RESIDUAL_RTOL * y_norm:
            reason = ZERO_RESIDUAL
            break
        if k_cap is not None and len(selected) >= k_cap:
            reason = FIXED_K
            break
        if ratio_delta is not None and state.residual_norm <= ratio_delta * y_norm:
            reason = RESIDUAL_RATIO
            break
        idx = select_atom(dm, state.residual, state.residual_norm, criterion, excluded, rng)
        if idx is None:
            if criterion.thresholded and bool((dm.live & ~excluded).any()):
                reason = NO_ACTIVE_ATOM
            else:
                reason = DICTIONARY_EXHAUSTED
            break
        attempts += 1
        corr = correlation(state.residual, state.residual_norm, dm.columns[:, idx])
        try:
            project_append(state, dm.columns[:, idx])
        except DegenerateColumn:
            excluded[idx] = True
            continue
        excluded[idx] = True
        selected.append(idx)
        residual_norms.append(state.residual_norm)
        selected_corrs.append(corr)
    return FitTrace(selected, None, residual_norms, selected_corrs, reason, attempts, dm, state)


def fit_ogl(dm: DesignMatrix, y, criterion: Criterion, k_max: int, rng=None) -> FitTrace:
    """Orthogonal greedy fit with an unthresholded criterion, k_max steps."""
    if criterion.thresholded:
        raise ValueError("fit_ogl takes an unthresholded criterion; see fit_togl")
    return _fit_projection(dm, y, criterion, k_cap=k_max, rng=rng)


def fit_togl(
    dm: DesignMatrix, y, criterion: Criterion, k_max: int, rng=None
) -> FitTrace:
    """Orthogonal greedy fit with thresholded selection and an iteration cap."""
    if not criterion.thresholded:
        raise ValueError("fit_togl requires a thresholded criterion")
    return _fit_projection(dm, y, criterion, k_cap=k_max, rng=rng)


def fit_delta_togl(
    dm: DesignMatrix, y, delta: float, selection: str = "max", rng=None
) -> FitTrace:
    """Adaptive-threshold orthogonal greedy fit.

    Selection is thresholded at delta and the loop stops on its own:
    either no atom correlates above delta with the residual, or the
    residual norm falls to delta times the target norm.  No iteration
    cap is needed; the pool shrinks every iteration.
    """
    validate_delta(delta)
    criterion = Criterion(selection, delta)
    return _fit_projection(dm, y, criterion, k_cap=None, ratio_delta=delta, rng=rng)


def fit_pgl(dm: DesignMatrix, y, k_max: int) -> FitTrace:
    """Pure greedy fit: one correlation-scaled atom per step, no projection.

    Requires unit-empirical-norm columns (the step size is the plain
    inner product).  Atoms may be selected repeatedly; increments for the
    same atom accumulate.
    """
    if not dm.normalized:
        raise ValueError("pure greedy requires a column-normalized design")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    y = np.asarray(y, dtype=float)
    y_norm = _check_target(y)
    residual = y.copy()
    residual_norm = y_norm
    scales = dm.scales()
    selected, increments = [], []
    residual_norms, selected_corrs = [], []
    reason = None
    for _ in range(k_max):
        if residual_norm < ZERO_RESIDUAL_RTOL * y_norm:
            reason = ZERO_RESIDUAL
            break
        inner = (dm.columns.T @ residual) / dm.m
        inner[~dm.live] = 0.0
        idx = int(np.argmax(np.abs(inner)))
        step = float(inner[idx])
        if step == 0.0:
            reason = NO_ACTIVE_ATOM
            break
        selected.append(idx)
        increments.append(step / scales[idx])
        selected_corrs.append(abs(step) / residual_norm)
        residual = residual - step * dm.columns[:, idx]
        residual_norm = empirical_norm(residual)
        residual_norms.append(residual_norm)
    if reason is None:
        reason = FIXED_K
    return FitTrace(selected, increments, residual_norms, selected_corrs, reason, len(selected))


def predict(model: SparseModel, spec: RbfSpec, inputs, truncate_at=None) -> np.ndarray:
    """Evaluate the sparse model at inputs, clamped to [-M, M] when ``truncate_at`` is M."""
    inputs = np.asarray(inputs, dtype=float)
    n_eval = inputs.shape[0]
    if model.sparsity == 0:
        pred = np.zeros(n_eval)
    else:
        if max(model.selected) >= spec.n:
            raise IndexOutOfRange(
                f"atom index {max(model.selected)} outside dictionary of size {spec.n}"
            )
        pred = evaluate_atoms(spec, inputs, model.selected) @ model.coefficients
    if truncate_at is not None:
        pred = truncate_values(pred, truncate_at)
    return pred


def prefix_predictions(trace: FitTrace, columns: np.ndarray, ks) -> dict:
    """Predictions of the prefix models at the given iteration counts.

    ``columns`` is a raw design matrix evaluated wherever predictions are
    wanted.  Counts beyond the fitted length reuse the final model, so a
    projection trace solves each distinct prefix once.  Additive traces
    are accumulated in a single pass.
    """
    ks = sorted({int(k) for k in ks})
    out = {}
    if trace.state is not None:
        by_prefix = {0: np.zeros(columns.shape[0])}
        for k in ks:
            k_eff = min(k, trace.k_fitted)
            if k_eff not in by_prefix:
                model = trace.prefix_model(k_eff)
                by_prefix[k_eff] = columns[:, trace.selected[:k_eff]] @ model.coefficients
            out[k] = by_prefix[k_eff]
        return out
    pred = np.zeros(columns.shape[0])
    wanted = set(ks)
    if 0 in wanted:
        out[0] = pred.copy()
    for step in range(trace.k_fitted):
        pred = pred + trace.increments[step] * columns[:, trace.selected[step]]
        if step + 1 in wanted:
            out[step + 1] = pred.copy()
    for k in ks:
        if k not in out:
            out[k] = pred.copy()
    return out
