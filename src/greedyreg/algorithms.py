"""Greedy fitting schemes over a materialized design matrix.

Four loops share the same ingredients: pick an atom (greedy criterion),
absorb it (orthogonal projection for the OGL family, a single
correlation-scaled step for pure greedy), stop per a termination rule.
Every fit records a full trace so one run yields the model at every
prefix length k for parameter sweeps; an orthogonal fit's trace is its
QR factor, solved for a prefix's coefficients only when one is read.
Orthogonal fits of one target that select the same atoms share their
appends and correlations through a FitTree, so a threshold sweep pays
for each distinct prefix once.  The max fits of one target need no
tree: each is a cut of one unthresholded path (MaxPath).
"""

import time
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
    check_target,
    clearly_degenerate,
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
    read from a FitTree that an earlier fit filled; a cut of a MaxPath
    counts those its stretch of the path computed).  ``seconds`` is the
    fit's own clock when it keeps one (a MaxPath cut), else None.
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
    seconds: float | None = None

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
            (coefs,) = solve_coefficients(self.state, [k])
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
        self.y_norm = check_target(self.y)
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
    # The append rebinds the residual and never writes into it.
    residual, residual_norm = state.residual, state.residual_norm
    try:
        project_append(state, column)
    except DegenerateColumn:
        tree.record(node, idx, None, 0)
        return None
    child = _Node(correlation(residual, residual_norm, column), dm.n)
    # basis column and residual, factor column, correlations
    if tree.record(node, idx, child, 2 * dm.m + state.k + dm.n):
        child.append = state.last_append()  # only a kept node is replayed
    return child


def _stop_reason(residual_norm, y_norm, k, k_cap, ratio_delta):
    """The OGL family's stop rule, checked before each selection: the reason, or None to go on."""
    if residual_norm < ZERO_RESIDUAL_RTOL * y_norm:
        return ZERO_RESIDUAL
    if k_cap is not None and k >= k_cap:
        return FIXED_K
    if ratio_delta is not None and residual_norm <= ratio_delta * y_norm:
        return RESIDUAL_RATIO
    return None


def _no_pick_reason(criterion: Criterion, atoms_left: bool):
    """Why a fit stops when its selection offers none; ``atoms_left``: a live atom is untried."""
    return NO_ACTIVE_ATOM if criterion.thresholded and atoms_left else DICTIONARY_EXHAUSTED


class _Walk:
    """One OGL-family loop between its selections: the atoms kept and tried, and the residual."""

    def __init__(self, tree: FitTree, criterion: Criterion, rng):
        self.tree, self.criterion, self.rng = tree, criterion, rng
        self.node = tree.root
        self.state = ProjectionState(tree.y)
        self.excluded = np.zeros(tree.dm.n, dtype=bool)
        self.pool = CandidatePool(self.node.scan)
        self.selected, self.residual_norms, self.selected_corrs = [], [], []
        self.attempts = 0

    def pick(self):
        """The atom to try next on the current residual, or None when the criterion offers none."""
        state = self.state
        return select_atom(
            self.tree.dm, state.residual, state.residual_norm, self.criterion, self.excluded,
            self.rng, self.pool,
        )

    def take(self, idx: int) -> bool:
        """Try atom ``idx``: True if appended, False if its degenerate column was skipped.

        An atom the pool flagged is skipped without an append; an append
        that fails has the pool screen its next candidates.
        """
        self.attempts += 1
        self.excluded[idx] = True
        node, pool = self.node, self.pool
        child = node.children.get(idx, node)
        failed = False
        if child is node:
            if pool.flagged(idx):
                child = None
                self.tree.record(node, idx, None, 0)
            else:
                child = _new_child(self.tree, node, self.state, idx)
                failed = child is None
        elif child is not None:
            replay_append(self.state, child.append)
        if child is None:
            # The residual is unchanged, so the pool still holds its candidates.
            pool.skip(idx)
            if failed:
                pool.screen(self._degenerate)
            return False
        self.node = child
        pool.reset(child.scan)
        self.selected.append(idx)
        self.residual_norms.append(self.state.residual_norm)
        self.selected_corrs.append(child.corr)
        return True

    def _degenerate(self, atoms):
        return clearly_degenerate(self.state, np.take(self.tree.dm.columns, atoms, axis=1))


class MaxPath:
    """The unthresholded max OGL path of one target on one design; every max fit is a cut of it.

    A max fit, capped or not, thresholded at any delta or not, with or
    without the residual-ratio stop, follows this path until its stop
    rule fires: while the path's pick correlates above delta it is also
    the thresholded pick (the stable order of the atoms above delta is
    a prefix of the full order), and both skip the same degenerate
    columns.  So the path keeps one record per pick (the picked atom's
    correlation as its selection scan computed it) and one per attempt
    (whether it kept the atom), each with the path's clock and the
    correlations it had scanned once it was made.  A cut reads the
    fit's trace off these records bit for bit, and shares the path's
    QR factor for prefix solves.  The path runs only as far as its cuts
    have needed: a pick at or below a cut's delta waits untried until a
    smaller delta asks for it.  Past the design's numerical rank most
    picks are atoms the pool flagged as clearly degenerate; the path
    picks and skips a run of them in one step, recording each as it
    would one by one, all at the clock of the run's end.  A run stops
    before the first pick at or below the delta that called it, so it
    makes no attempt a cut did not need.
    """

    def __init__(self, dm: DesignMatrix, y):
        start = time.perf_counter()
        self._walk = _Walk(FitTree._unrecorded(dm, y), Criterion("max"), None)
        self._picked = None  # the atom of the latest pick
        self._picks = []  # per pick: (correlation, None when no atom was left; clock; scanned)
        self._tries = []  # per attempt: (whether it kept the atom; clock; scanned)
        self._setup = (time.perf_counter() - start, 0)  # (clock, scanned) before the first pick
        self._clock = self._setup[0]

    def check(self, dm: DesignMatrix, y) -> "MaxPath":
        self._walk.tree.check(dm, y)
        return self

    def _mark(self, start: float):
        """Run the path's clock on by the time since ``start``: (clock, correlations scanned)."""
        self._clock = self._clock + time.perf_counter() - start
        return self._clock, self._walk.pool.scanned

    def _top(self, j: int, delta):
        """Pick j's correlation, None when no atom was left; the path makes pick j if it has not.

        Where flagged atoms above ``delta`` lead the pool, it picks and skips their run at once.
        """
        if j == len(self._picks):
            start, walk = time.perf_counter(), self._walk
            run = walk.pool.pop_flagged(delta)
            if run.size:
                walk.attempts += run.size
                walk.excluded[run] = True
                mark = self._mark(start)
                self._picks.extend((top, *mark) for top in walk.pool.scan.values[run].tolist())
                self._tries.extend([(False, *mark)] * run.size)
            else:
                self._picked = walk.pick()
                top = None if self._picked is None else float(walk.pool.scan.values[self._picked])
                self._picks.append((top, *self._mark(start)))
        return self._picks[j][0]

    def _taken(self, j: int) -> bool:
        """Whether attempt j kept its atom; the path tries its pending pick if it has not."""
        if j == len(self._tries):
            start = time.perf_counter()
            kept = self._walk.take(self._picked)
            self._tries.append((kept, *self._mark(start)))
        return self._tries[j][0]

    def cut(self, criterion: Criterion, k_cap=None, ratio_delta=None) -> FitTrace:
        """The trace of a max fit with this cap and ratio stop, as if run alone.

        Its ``seconds`` are the path's clock where the fit stops plus the
        cut itself, not what the path ran for other cuts.
        """
        if criterion.kind != "max":
            raise ValueError(f"a MaxPath serves the max criterion, not {criterion.kind!r}")
        start, ran = time.perf_counter(), self._clock
        walk, delta, y_norm = self._walk, criterion.delta, self._walk.tree.y_norm
        k = j = 0  # atoms kept, attempts made
        while True:
            norm = walk.residual_norms[k - 1] if k else y_norm
            reason = _stop_reason(norm, y_norm, k, k_cap, ratio_delta)
            if reason is not None:
                seconds, scanned = self._tries[j - 1][1:] if j else self._setup
                break
            top = self._top(j, delta)
            if top is None or (delta is not None and not top > delta):
                reason = _no_pick_reason(criterion, top is not None)
                seconds, scanned = self._picks[j][1:]
                break
            k += self._taken(j)
            j += 1
        own = time.perf_counter() - start - (self._clock - ran)
        return FitTrace(
            walk.selected[:k], None, walk.residual_norms[:k], walk.selected_corrs[:k], reason,
            j, scanned, walk.tree.dm, walk.state, seconds + own,
        )


def _fit_projection(dm, y, criterion, k_cap, ratio_delta=None, rng=None, tree=None):
    """Shared OGL-family loop; k_cap and ratio_delta select the stop rule's clauses.

    ``tree`` is a FitTree the fit shares, or a MaxPath it is cut from.
    """
    if k_cap is not None and not 1 <= k_cap <= dm.n:
        raise ValueError(f"k_max must be in [1, {dm.n}], got {k_cap}")
    if isinstance(tree, MaxPath):
        return tree.check(dm, y).cut(criterion, k_cap, ratio_delta)
    walk = _Walk(FitTree._unrecorded(dm, y) if tree is None else tree.check(dm, y), criterion, rng)
    y_norm = walk.tree.y_norm
    while True:
        reason = _stop_reason(
            walk.state.residual_norm, y_norm, len(walk.selected), k_cap, ratio_delta
        )
        if reason is not None:
            break
        idx = walk.pick()
        if idx is None:
            reason = _no_pick_reason(criterion, bool((dm.live & ~walk.excluded).any()))
            break
        walk.take(idx)
    return FitTrace(
        walk.selected, None, walk.residual_norms, walk.selected_corrs, reason, walk.attempts,
        walk.pool.scanned, dm, walk.state,
    )


def fit_ogl(
    dm: DesignMatrix, y, criterion: Criterion, k_max: int, rng=None, tree=None
) -> FitTrace:
    """Orthogonal greedy fit with an unthresholded criterion, k_max steps."""
    if criterion.thresholded:
        raise ValueError("fit_ogl takes an unthresholded criterion; see fit_togl")
    return _fit_projection(dm, y, criterion, k_cap=k_max, rng=rng, tree=tree)


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
    y_norm = check_target(y)
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


def prefix_predictions(trace: FitTrace, columns: np.ndarray, ks) -> np.ndarray:
    """Predictions of the prefix models at the given iteration counts, one row per count.

    ``columns`` is a raw design matrix evaluated wherever predictions are
    wanted; row i of the C-contiguous result is the prediction of the
    first ``ks[i]`` iterations.  Counts beyond the fitted length reuse
    the final model, so a projection trace solves each distinct prefix
    once, all in one call of solve_coefficients.  Additive traces are
    accumulated in a single pass.
    """
    ks = [min(int(k), trace.k_fitted) for k in ks]
    out = np.zeros((len(ks), columns.shape[0]))
    first = {}  # prefix length -> the row that holds its prediction
    for row, k in enumerate(ks):
        first.setdefault(k, row)
    if trace.state is not None:
        solved = sorted(set(first) - {0})
        if solved:
            # One gather; each prefix's product reads its leading columns.  A
            # fancy index gathers them column-major, the layout whose bits the
            # products keep (np.take would gather row-major).
            picked = columns[:, trace.selected[: solved[-1]]]
            to_raw = trace.dm.to_raw_coefficients
            for k, coefs in zip(solved, solve_coefficients(trace.state, solved)):
                np.matmul(picked[:, :k], to_raw(coefs, trace.selected[:k]), out=out[first[k]])
    else:
        pred = np.zeros(columns.shape[0])
        for step in range(max(first, default=0)):
            pred = pred + trace.increments[step] * columns[:, trace.selected[step]]
            if step + 1 in first:
                out[first[step + 1]] = pred
    for row, k in enumerate(ks):
        if first[k] != row:
            out[row] = out[first[k]]
    return out
