"""Greedy fitting schemes over a materialized design matrix.

Four loops share the same ingredients: pick an atom (greedy criterion),
absorb it (orthogonal projection for the OGL family, a single
correlation-scaled step for pure greedy), stop per a termination rule.
Every fit records a full trace so one run yields the model at every
prefix length k for parameter sweeps; an orthogonal fit's trace is its
QR factor, solved for a prefix's coefficients only when one is read.
Orthogonal fits of one target that select the same atoms share their
appends and correlations through a FitTree, so a threshold sweep pays
for each distinct prefix once.
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
from .greedy import (
    CandidatePool,
    Criterion,
    ResidualScan,
    correlation,
    select_atom,
    validate_delta,
)
from .linalg import (
    DegenerateColumn,
    ProjectionState,
    empirical_norm,
    project_append,
    replay_append,
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
    columns that were skipped; ``atoms_scanned`` counts the
    atom-residual correlations the selection computed (not those it
    read from a FitTree that an earlier fit filled).
    """

    selected: list
    increments: list | None
    residual_norms: list
    selected_correlations: list
    termination_reason: str
    iterations: int
    atoms_scanned: int
    dm: DesignMatrix | None = None
    state: ProjectionState | None = None

    @property
    def k_fitted(self) -> int:
        return len(self.selected)

    @property
    def degenerate_skips(self) -> int:
        """Attempts whose column lay in the selected span and was skipped."""
        return self.iterations - self.k_fitted

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


class _Node:
    """One residual of a FitTree: the residual after a selected prefix."""

    __slots__ = ("append", "corr", "scan", "children", "kept")

    def __init__(self, corr, n: int, kept: bool = False):
        self.append = None  # the linalg.Append that made it, set once the tree keeps it
        self.corr = corr  # the selected atom's correlation with the parent residual
        self.scan = ResidualScan(n)
        self.children = {}  # atom tried here -> its node, or None if its column was degenerate
        self.kept = kept  # whether the tree holds it, so that entries under it can be kept


# What a FitTree charges, in floats, for one entry beyond its arrays: the
# dict slot, its key and, for a node, the Python objects that hold it.
_ENTRY_FLOATS = 64


class FitTree:
    """The work of orthogonal fits of one target on one design, shared by prefix.

    A node is the residual after a selected prefix: its correlations as
    far as any fit scanned them, and per atom tried there the child
    node, or None when the column was degenerate.  A child keeps what
    its append produced, so a later fit that selects the same atoms
    replays the append in O(m) instead of O(m*k) and reads the
    correlations instead of computing them; its trace comes out bit for
    bit as it would alone.  Fits of a threshold sweep share most of
    their prefixes.

    The tree keeps at most m*n floats, the size of the design, counting
    each entry's arrays and _ENTRY_FLOATS for its Python objects; past
    that, fits go on without recording new entries.  A fit given no
    tree records nothing.
    """

    def __init__(self, dm: DesignMatrix, y):
        self.dm = dm
        self.y = np.array(y, dtype=float)
        self.y_norm = _check_target(self.y)
        self.budget = dm.m * dm.n  # floats left to record
        self.root = _Node(None, dm.n, kept=True)

    @classmethod
    def _unrecorded(cls, dm: DesignMatrix, y) -> "FitTree":
        """The tree of a fit given none: it lends the loop its root and records nothing."""
        tree = cls(dm, y)
        tree.root.kept = False
        return tree

    def check(self, dm: DesignMatrix, y) -> "FitTree":
        if dm is not self.dm or not np.array_equal(self.y, y):
            raise ValueError("FitTree belongs to another design or target")
        return self

    def record(self, node: _Node, idx: int, child, size: int) -> bool:
        """Keep ``child`` (a node, or None for a degenerate column) under ``node`` if it fits."""
        size += _ENTRY_FLOATS
        if not node.kept or size > self.budget:
            return False
        self.budget -= size
        node.children[idx] = child
        if child is not None:
            child.kept = True
        return True


def _new_child(tree: FitTree, node: _Node, state: ProjectionState, idx: int):
    """Append atom ``idx`` to ``state``, which holds ``node``'s residual, and record the child.

    Returns the child, or None (state untouched) when the column is degenerate.
    """
    dm = tree.dm
    column = dm.columns[:, idx]
    corr = correlation(state.residual, state.residual_norm, column)
    try:
        project_append(state, column)
    except DegenerateColumn:
        tree.record(node, idx, None, 0)
        return None
    child = _Node(corr, dm.n)
    # basis column and residual, factor column, correlations
    if tree.record(node, idx, child, 2 * dm.m + state.k + dm.n):
        child.append = state.last_append()  # only a kept node is replayed
    return child


def _fit_projection(dm, y, criterion, k_cap, ratio_delta=None, rng=None, tree=None):
    """Shared OGL-family loop and the one stop rule; k_cap and ratio_delta select its clauses."""
    if k_cap is not None and not 1 <= k_cap <= dm.n:
        raise ValueError(f"k_max must be in [1, {dm.n}], got {k_cap}")
    tree = FitTree._unrecorded(dm, y) if tree is None else tree.check(dm, y)
    y_norm, node = tree.y_norm, tree.root
    state = ProjectionState(y)
    excluded = np.zeros(dm.n, dtype=bool)
    pool = CandidatePool(node.scan)
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
        idx = select_atom(dm, state.residual, state.residual_norm, criterion, excluded, rng, pool)
        if idx is None:
            if criterion.thresholded and bool((dm.live & ~excluded).any()):
                reason = NO_ACTIVE_ATOM
            else:
                reason = DICTIONARY_EXHAUSTED
            break
        attempts += 1
        excluded[idx] = True
        child = node.children.get(idx, node)
        if child is node:
            child = _new_child(tree, node, state, idx)
        elif child is not None:
            replay_append(state, child.append)
        if child is None:
            # The residual is unchanged, so the pool still holds its candidates.
            pool.skip(idx)
            continue
        node = child
        pool.reset(node.scan)
        selected.append(idx)
        residual_norms.append(state.residual_norm)
        selected_corrs.append(node.corr)
    return FitTrace(
        selected, None, residual_norms, selected_corrs, reason, attempts, pool.scanned, dm, state
    )


def fit_ogl(dm: DesignMatrix, y, criterion: Criterion, k_max: int, rng=None) -> FitTrace:
    """Orthogonal greedy fit with an unthresholded criterion, k_max steps."""
    if criterion.thresholded:
        raise ValueError("fit_ogl takes an unthresholded criterion; see fit_togl")
    return _fit_projection(dm, y, criterion, k_cap=k_max, rng=rng)


def fit_togl(
    dm: DesignMatrix, y, criterion: Criterion, k_max: int, rng=None, tree=None
) -> FitTrace:
    """Orthogonal greedy fit with thresholded selection and an iteration cap."""
    if not criterion.thresholded:
        raise ValueError("fit_togl requires a thresholded criterion")
    return _fit_projection(dm, y, criterion, k_cap=k_max, rng=rng, tree=tree)


def fit_delta_togl(
    dm: DesignMatrix, y, delta: float, selection: str = "max", rng=None, tree=None
) -> FitTrace:
    """Adaptive-threshold orthogonal greedy fit.

    Selection is thresholded at delta and the loop stops on its own:
    either no atom correlates above delta with the residual, or the
    residual norm falls to delta times the target norm.  No iteration
    cap is needed; the pool shrinks every iteration.
    """
    validate_delta(delta)
    criterion = Criterion(selection, delta)
    return _fit_projection(
        dm, y, criterion, k_cap=None, ratio_delta=delta, rng=rng, tree=tree
    )


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
    scans = 0
    for _ in range(k_max):
        if residual_norm < ZERO_RESIDUAL_RTOL * y_norm:
            reason = ZERO_RESIDUAL
            break
        scans += 1
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
    return FitTrace(
        selected, increments, residual_norms, selected_corrs, reason, len(selected), scans * dm.n
    )


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
