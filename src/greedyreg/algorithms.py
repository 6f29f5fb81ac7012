"""Greedy fitting schemes over a materialized design matrix.

Four loops share the same ingredients: pick an atom (greedy criterion),
absorb it (orthogonal projection for the OGL family, a single
correlation-scaled step for pure greedy), stop per a termination rule.
Every fit records a full trace so one run yields the model at every
prefix length k for parameter sweeps; an orthogonal fit's trace is its
QR factor, solved for a prefix's coefficients only when one is read.
Every orthogonal fit is a cut of a walk (_Walk), the one loop that
applies the stop rule.  Orthogonal fits of one target that select the
same atoms share their appends and correlations through a FitTree, so a
threshold sweep pays for each distinct prefix once.  The max fits of
one target need no tree: each is a cut of one unthresholded walk
(MaxPath).  Pure greedy
computes exactly only the correlations that a certified low-rank sketch
of the design cannot rule out (_PglSketch).
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
    block_width,
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
    counts those its stretch of the path computed; pure greedy counts
    those it computed exactly, not its sketch's bounds).  ``seconds`` is
    an orthogonal fit's own clock, its walk's where it stops plus the cut
    (not what a MaxPath ran for other cuts); None for pure greedy.
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
    """The picks and attempts of one OGL-family fit over a FitTree, made as its cuts need them.

    Per pick it records the atom's correlation as its selection scan
    computed it (None when no atom was left), per attempt whether it kept
    the atom, each with the walk's clock and correlations scanned so far.
    ``cut``, the one loop that applies a stop rule, reads these records
    and has the walk make a pick or attempt only when the rule asks for a
    new one: a lone fit is one cut, each max fit of a MaxPath another.
    Past the numerical rank most max picks are atoms the pool flagged as
    clearly degenerate.  Where the pool's head is the pick and the tree
    records nothing (a max walk, unrecorded), the walk picks and skips a
    run of them at once, recorded one by one at the clock of the run's
    end.  A run stops before the first pick at or below the calling cut's
    delta, so it makes no attempt a cut did not need.
    """

    def __init__(self, tree: FitTree, criterion: Criterion, rng):
        start = time.perf_counter()
        self.tree, self.criterion, self.rng = tree, criterion, rng
        self.node = tree.root
        self.state = ProjectionState(tree.y)
        self.excluded = np.zeros(tree.dm.n, dtype=bool)
        self.live = int(np.count_nonzero(tree.dm.live))  # each attempt tries another live atom
        self.pool = CandidatePool(self.node.scan)
        self.runs = criterion.kind == "max" and not tree.root.kept  # skips flagged runs at once
        self.selected, self.residual_norms, self.selected_corrs = [], [], []
        self.attempts = 0
        self._picked = None  # the atom of the latest pick
        self._picks = []  # per pick: (correlation, None when no atom was left; clock; scanned)
        self._tries = []  # per attempt: (whether it kept the atom; clock; scanned)
        self._setup = (time.perf_counter() - start, 0)  # (clock, scanned) before the first pick
        self._clock = self._setup[0]

    def _mark(self, start: float):
        """Run the walk's clock on by the time since ``start``: (clock, correlations scanned)."""
        self._clock = self._clock + time.perf_counter() - start
        return self._clock, self.pool.scanned

    def _top(self, j: int, delta):
        """Pick j's correlation, None when no atom was left; the walk makes pick j if it has not.

        Where flagged atoms above ``delta`` lead the pool of a walk that
        skips runs, it picks and skips their run at once.
        """
        if j == len(self._picks):
            start, pool = time.perf_counter(), self.pool
            run = pool.pop_flagged(delta) if self.runs else ()
            if len(run):
                self.attempts += run.size
                self.excluded[run] = True
                mark = self._mark(start)
                self._picks.extend((top, *mark) for top in pool.scan.values[run].tolist())
                self._tries.extend([(False, *mark)] * run.size)
            else:
                state = self.state
                self._picked = select_atom(
                    self.tree.dm, state.residual, state.residual_norm, self.criterion,
                    self.excluded, self.rng, pool,
                )
                top = None if self._picked is None else float(pool.scan.values[self._picked])
                self._picks.append((top, *self._mark(start)))
        return self._picks[j][0]

    def _taken(self, j: int) -> bool:
        """Whether attempt j kept its atom; the walk tries its pending pick if it has not."""
        if j == len(self._tries):
            start = time.perf_counter()
            self._tries.append((self._take(self._picked), *self._mark(start)))
        return self._tries[j][0]

    def _take(self, idx: int) -> bool:
        """Try atom ``idx``: True if appended, False if its degenerate column was skipped.

        An atom the pool flagged is skipped without an append; an append
        that fails has the pool screen its next candidates.
        """
        self.attempts += 1
        self.excluded[idx] = True
        tree, node, pool = self.tree, self.node, self.pool
        child = node.children.get(idx, node)
        new = child is node  # the tree holds nothing for idx here
        if new:
            child = None if pool.flagged(idx) else self._append(idx)
        elif child is not None:
            replay_append(self.state, child.append)
        if child is None:
            # The residual is unchanged, so the pool still holds its candidates.
            pool.skip(idx)
            if new:
                tree.record(node, idx, None, 0)
                if not pool.flagged(idx):  # its append failed
                    pool.screen(self._degenerate)
            return False
        self.node = child
        pool.reset(child.scan)
        self.selected.append(idx)
        self.residual_norms.append(self.state.residual_norm)
        self.selected_corrs.append(child.corr)
        return True

    def _append(self, idx: int):
        """Append atom ``idx`` and record its node; None (state untouched) if degenerate."""
        dm, state = self.tree.dm, self.state
        column = dm.columns[:, idx]
        # The append rebinds the residual and never writes into it.
        residual, residual_norm = state.residual, state.residual_norm
        try:
            project_append(state, column)
        except DegenerateColumn:
            return None
        child = _Node(correlation(residual, residual_norm, column), dm.n)
        # basis column and residual, factor column, correlations
        if self.tree.record(self.node, idx, child, 2 * dm.m + state.k + dm.n):
            child.append = state.last_append()  # only a kept node is replayed
        return child

    def _degenerate(self, atoms):
        return clearly_degenerate(self.state, np.take(self.tree.dm.columns, atoms, axis=1))

    def cut(self, criterion: Criterion, k_cap=None, ratio_delta=None) -> FitTrace:
        """The trace of a fit with this criterion, cap and ratio stop, as if run alone.

        Its ``seconds`` are the walk's clock where the fit stops plus the
        cut itself, not what the walk ran for other cuts.
        """
        start, ran = time.perf_counter(), self._clock
        delta, y_norm = criterion.delta, self.tree.y_norm
        k = j = 0  # atoms kept, attempts made
        while True:
            norm = self.residual_norms[k - 1] if k else y_norm
            reason = _stop_reason(norm, y_norm, k, k_cap, ratio_delta)
            if reason is not None:
                seconds, scanned = self._tries[j - 1][1:] if j else self._setup
                break
            top = self._top(j, delta)
            if top is None or (delta is not None and not top > delta):
                reason = _no_pick_reason(criterion, j < self.live)
                seconds, scanned = self._picks[j][1:]
                break
            k += self._taken(j)
            j += 1
        own = time.perf_counter() - start - (self._clock - ran)
        return FitTrace(
            self.selected[:k], None, self.residual_norms[:k], self.selected_corrs[:k], reason,
            j, scanned, self.tree.dm, self.state, seconds + own,
        )


class MaxPath(_Walk):
    """The unthresholded max walk of one target on one design; every max fit is a cut of it.

    A max fit, capped or not, thresholded at any delta or not, with or
    without the residual-ratio stop, follows this walk until its stop
    rule fires: while the walk's pick correlates above delta it is also
    the thresholded pick (the stable order of the atoms above delta is
    a prefix of the full order), and both skip the same degenerate
    columns.  So a cut reads the fit's trace off the walk's records bit
    for bit, and shares its QR factor for prefix solves.  A pick at or
    below a cut's delta waits untried until a smaller delta asks for it.
    """

    def __init__(self, dm: DesignMatrix, y):
        super().__init__(FitTree._unrecorded(dm, y), Criterion("max"), None)

    def cut(self, criterion: Criterion, k_cap=None, ratio_delta=None) -> FitTrace:
        if criterion.kind != "max":
            raise ValueError(f"a MaxPath serves the max criterion, not {criterion.kind!r}")
        return super().cut(criterion, k_cap, ratio_delta)


def _fit_projection(dm, y, criterion, k_cap, ratio_delta=None, rng=None, tree=None):
    """An OGL-family fit, a cut of its walk; k_cap and ratio_delta select the stop rule's clauses.

    ``tree`` is a FitTree the fit's walk records into, or a MaxPath it is cut from.
    """
    if k_cap is not None and not 1 <= k_cap <= dm.n:
        raise ValueError(f"k_max must be in [1, {dm.n}], got {k_cap}")
    if tree is None:
        tree = FitTree._unrecorded(dm, y)
    walk = tree if isinstance(tree, MaxPath) else _Walk(tree, criterion, rng)
    walk.tree.check(dm, y)
    return walk.cut(criterion, k_cap, ratio_delta)


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


# Pure greedy's sketch (_PglSketch): the width of its range basis, and the
# largest tail, as a fraction of its atom's norm, with which the basis is
# kept.  Its tail temporaries and its exact blocks short of the whole
# dictionary are at most greedy.block_width(m) atoms wide, like the scan
# blocks, so that an exact block keeps the full product's bits.
_SKETCH_RANK = 32
_SKETCH_TAIL = 1e-4


class _PglSketch:
    """Which correlations a pure greedy step must compute exactly to pick its atom.

    Once per fit, a range basis ``U`` (m by p, orthonormal, from a QR of
    ``columns @ Ω`` with a fixed random Ω, uniform in [-1/2, 1/2);
    Halko, Martinsson & Tropp 2011) gives each atom a_j its coordinates
    b_j = Uᵀa_j and its tail τ_j = ‖a_j − U b_j‖.  At a residual r,
    t_j = b_jᵀ(Uᵀr) is within (τ_j + c_m ‖a_j‖) ‖r‖ of the product a_jᵀr
    that the full scan computes, so an atom whose bound on |t_j| stays
    below another atom's lower bound cannot be the pick, nor tie it (a
    safe screening rule, El Ghaoui, Viallon & Rabbani 2012).  Each step
    computes exactly only the aligned blocks of atoms that may be the
    pick; on the BLAS this was tested with, such a block's product
    equals those entries of the full product bit for bit (see
    greedy.py), so the pick and its step are the full scan's.  Ω sets
    only how many atoms are computed, never which one is picked.

    The rounding margin c_m.  With u the unit roundoff, γ_k = ku/(1 − ku),
    p ≤ m the basis width, products summed in any order (so a length-k
    dot is within γ_k |x|ᵀ|y| of its value), and ‖U‖₂ ≤ 2 (a Householder
    Q is orthonormal to O(m p^1.5 u), Higham 2002 §19.3), so that
    ‖U‖_F ≤ 2√p and the computed ‖b_j‖ ≤ 3‖a_j‖, the identity
    a_jᵀr = b_jᵀ(Uᵀr) + (a_j − U b_j)ᵀr bounds each error in ‖a_j‖‖r‖:

    * the full scan's product itself: γ_m;
    * Uᵀr computed: 3‖a_j‖ · γ_m ‖U‖_F ‖r‖, that is 6√p γ_m;
    * t_j from the computed Uᵀr: γ_p ‖b_j‖ ‖Uᵀr‖, at most 7 γ_p;
    * the computed tail against ‖a_j − U b_j‖: U b_j within
      γ_p ‖U‖_F ‖b_j‖ = 6√p γ_p, the subtraction 8u, the norm's sum of
      squares and square root γ_(m+2) τ_j ≤ γ_(m+2) (a kept tail is below
      ‖a_j‖), and ‖r‖ taken from the empirical norm γ_(m+3);
    * forming the bounds and then dividing the products by m: 8u, which
      also keeps a ruled-out atom strictly below the pick after the
      division, so that it cannot tie.

    With γ_p ≤ γ_m ≤ γ_(m+3) and 8u ≤ 2 γ_(m+3), these sum to at most
    (12√p + 14) γ_(m+3), which c_m takes, and at least 1e-12.

    The basis pays only on a design of low numerical rank.  Where some
    live atom's tail exceeds _SKETCH_TAIL of its norm, the bounds would
    rule out few atoms, so the sketch drops its basis as soon as its
    tails show this and every step computes the whole dictionary, the
    full scan it replaces; the sketch's cost is then the one-time
    product and QR and the tails of one block.  Dead atoms get zero
    coordinates and radius, so they never crowd out a live pick.
    """

    def __init__(self, dm: DesignMatrix):
        columns, (m, n) = dm.columns, dm.columns.shape
        self.n, self.width = n, block_width(m)
        omega = np.random.default_rng(0).random((n, _SKETCH_RANK)) - 0.5
        basis, _ = np.linalg.qr(columns @ omega)
        p = basis.shape[1]
        coords = np.empty((p, n))
        radii = np.empty(n)
        u = np.finfo(float).eps / 2
        gamma = (m + 3) * u / (1 - (m + 3) * u)
        margin = max(1e-12, (12 * np.sqrt(p) + 14) * gamma)
        self.basis = None  # no basis: every step computes every atom
        for start in range(0, n, self.width):
            stop = start + self.width
            block = columns[:, start:stop]
            b = np.matmul(basis.T, block, out=coords[:, start:stop])
            tail = basis @ b
            np.subtract(block, tail, out=tail)
            tails = np.sqrt(np.einsum("ij,ij->j", tail, tail))
            norms = np.sqrt(np.einsum("ij,ij->j", block, block))
            live = dm.live[start:stop]
            if np.any(tails[live] > _SKETCH_TAIL * norms[live]):
                return
            radii[start:stop] = np.where(live, tails + margin * norms, 0.0)
        coords[:, ~dm.live] = 0.0
        # per unit of the residual's empirical norm, ‖r‖/√m
        self.basis, self.coords, self.radii = basis, coords, radii * np.sqrt(m)

    def blocks(self, residual, residual_norm: float) -> list:
        """The (start, stop) ranges of atoms whose correlations decide the pick at ``residual``.

        Each starts at a multiple of 4 and is a multiple of 4 wide or ends
        the dictionary; without a basis it is the one range (0, n).
        """
        if self.basis is None:
            return [(0, self.n)]
        bound = np.abs(self.coords.T @ (self.basis.T @ residual))
        radius = self.radii * residual_norm
        floor = (bound - radius).max()  # the largest lower bound
        bound += radius
        runs = []  # [first, last + 1] quads of 4 atoms, merged where they touch
        for quad in (np.flatnonzero(bound >= floor) // 4).tolist():
            if runs and quad <= runs[-1][1]:
                runs[-1][1] = quad + 1
            else:
                runs.append([quad, quad + 1])
        n = self.n
        if runs == [[0, -(-n // 4)]]:
            return [(0, n)]
        quads = self.width // 4  # per block
        return [
            (4 * quad, min(4 * (quad + quads), 4 * end, n))
            for first, end in runs
            for quad in range(first, end, quads)
        ]


def fit_pgl(dm: DesignMatrix, y, k_max: int) -> FitTrace:
    """Pure greedy fit: one correlation-scaled atom per step, no projection.

    Requires unit-empirical-norm columns (the step size is the plain
    inner product).  Atoms may be selected repeatedly; increments for the
    same atom accumulate.  Each step picks the atom of largest |inner
    product| with the residual (ties to the lowest index), computing
    exactly only the atoms that a _PglSketch cannot rule out; the trace
    is the full scan's bit for bit.
    """
    if not dm.normalized:
        raise ValueError("pure greedy requires a column-normalized design")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    y = np.asarray(y, dtype=float)
    y_norm = check_target(y)
    sketch = _PglSketch(dm)
    dead = ~dm.live
    residual = y.copy()
    residual_norm = y_norm
    selected, increments = [], []
    residual_norms, selected_corrs = [], []
    reason = None
    scanned = 0
    for _ in range(k_max):
        if residual_norm < ZERO_RESIDUAL_RTOL * y_norm:
            reason = ZERO_RESIDUAL
            break
        idx, step = 0, 0.0
        for start, stop in sketch.blocks(residual, residual_norm):
            inner = (dm.columns[:, start:stop].T @ residual) / dm.m
            inner[dead[start:stop]] = 0.0
            best = int(np.argmax(np.abs(inner)))
            value = float(inner[best])
            if abs(value) > abs(step):
                idx, step = start + best, value
            scanned += stop - start
        if step == 0.0:
            reason = NO_ACTIVE_ATOM
            break
        selected.append(idx)
        increments.append(step / dm.column_norms[idx])
        selected_corrs.append(abs(step) / residual_norm)
        residual = residual - step * dm.columns[:, idx]
        residual_norm = empirical_norm(residual)
        residual_norms.append(residual_norm)
    if reason is None:
        reason = FIXED_K
    return FitTrace(
        selected, increments, residual_norms, selected_corrs, reason, len(selected), scanned
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
