"""Dense regularized comparators: ridge least squares and L1 via FISTA.

Objectives use the empirical (1/m-weighted) data term so the
regularization weight is comparable across sample sizes:

    ridge:  (1/m) ||y - G a||^2 + lam ||a||_2^2
    lasso:  (1/2m) ||y - G a||^2 + lam ||a||_1

Coefficients are returned in the basis of the design columns as given.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import CONVERGED, FIXED_K, MAX_ITER, DesignMatrix
from .linalg import check_target, cholesky_solve

# fit_fista's defaults, shared by LassoPath.
FISTA_MAX_ITER = 10000
FISTA_TOL = 1e-6


class FactorizationFailure(ArithmeticError):
    """The regularized normal-equations matrix was not positive definite."""


@dataclass(frozen=True, eq=False)
class DenseModel:
    """Coefficients over the whole dictionary plus the weight that produced them.

    An iterative fit also says why it stopped (``converged`` or
    ``max_iter``) and the relative duality gap of the returned
    coefficients; a closed-form fit is ``fixed_k`` with no gap.
    """

    coefficients: np.ndarray
    lam: float
    iterations_used: int = 0
    termination: str = FIXED_K
    rel_gap: float | None = None

    def __post_init__(self):
        coefficients = np.asarray(self.coefficients, dtype=float)
        if not np.isfinite(coefficients).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coefficients)

    def sparsity(self, tol: float = 1e-8) -> int:
        return int(np.sum(np.abs(self.coefficients) > tol))


def _check_lam(lam: float):
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")


def fit_ridge(dm: DesignMatrix, y, lam: float) -> DenseModel:
    """Closed-form ridge solution via a Cholesky solve of (G'G/m + lam I).

    Raises ValueError when no column of the design is live, as a lasso fit does.
    """
    _check_lam(lam)
    y = np.asarray(y, dtype=float)
    check_target(y)
    if not dm.live.any():
        raise ValueError("no live columns")
    gram = dm.gram.copy()
    gram[np.diag_indices_from(gram)] += lam
    rhs = (dm.columns.T @ y) / dm.m
    try:
        coef = cholesky_solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(str(exc)) from exc
    return DenseModel(coef, lam)


def _soft_threshold_vec(values, t, out=None, magnitude=None):
    """sign(values) * max(|values| - t, 0), written into ``out`` when given.

    ``magnitude``, when given, receives max(|values| - t, 0): the
    absolute values of the result.
    """
    magnitude = np.abs(values, out=magnitude)
    magnitude -= t
    np.maximum(magnitude, 0.0, out=magnitude)
    return np.copysign(magnitude, values, out=out)


def lipschitz_estimate(dm: DesignMatrix) -> float:
    """Lipschitz constant of the lasso gradient step: ``dm.lipschitz``.

    The power iteration behind it depends on the design alone, so it
    runs once per design however many lambdas are fitted.
    """
    return dm.lipschitz


def lasso_objective(dm: DesignMatrix, y, coef, lam: float) -> float:
    """(1/2m) ||y - G a||^2 + lam ||a||_1.

    No fit calls it; it stays while the benchmark's tracer names it
    among the functions it wraps.
    """
    resid = y - dm.columns @ coef
    return float(resid @ resid) / (2 * dm.m) + lam * float(np.sum(np.abs(coef)))


def _objectives_and_gaps(x, gx, l1, b, yy, lams, scratch):
    """Per row of x: its lasso objective and relative duality gap, as two lists.

    Row i of ``gx`` is G'G x_i / m, ``l1`` holds each row's ||x||_1 and
    every row of ``b`` is G'y/m.  With yy = y'y/m, the mean squared
    residual is yy - 2 b'x + x'gx and G'(y - Gx)/m is b - gx.  The dual
    point is the residual rescaled so that ||G' theta||_inf <= m lam
    (Fercoq, Gramfort & Salmon 2015); the gap is primal minus dual over
    primal.  The reductions are taken along each contiguous row, which
    gives the bits of the 1-D reduction, and the rest is scalar
    arithmetic in Python floats, row by row.  ``scratch`` is a
    row-shaped array the computation may overwrite.
    """
    bxs = np.vecdot(x, b).tolist()
    xgxs = np.vecdot(x, gx).tolist()
    np.subtract(b, gx, out=scratch)
    tops = np.maximum.reduce(np.abs(scratch, out=scratch), axis=1).tolist()
    objectives, gaps = [], []
    for bx, xgx, top, norm1, lam in zip(bxs, xgxs, tops, l1.tolist(), lams):
        mean_sq_resid = yy - 2.0 * bx + xgx
        primal = 0.5 * mean_sq_resid + lam * norm1
        scale = min(1.0, lam / top) if top > 0 else 1.0
        dual = scale * (yy - bx) - 0.5 * scale * scale * mean_sq_resid
        objectives.append(primal)
        gaps.append((primal - dual) / primal if primal > 0 else 0.0)
    return objectives, gaps


def _halves(stacked, rows: int):
    """(stacked, its top rows, its bottom rows, the pairs of a top row and its bottom row)."""
    top, bottom = stacked[:rows], stacked[rows:]
    return stacked, top, bottom, list(zip(top, bottom))


class LassoPath:
    """FISTA lasso fits of one target on one design at every lambda of a grid, in one loop.

    The first ``model`` call solves the whole grid; every later call
    reads its lambda's fit.  A lambda's fit is the monotone accelerated
    proximal-gradient solve (Beck & Teboulle 2009): a fixed step 1/L with
    L from lipschitz_estimate, soft-thresholding by lam/L, and the usual
    momentum sequence; the accepted iterate only moves when the
    objective does not increase, which keeps the objective nonincreasing
    without changing the fixed point.  Every product runs on the n x n
    ``dm.gram``: one matvec per iteration, with the momentum's product
    taken by linearity.  A fit stops as ``converged`` once the relative
    duality gap of its accepted iterate is at most tol, else as
    ``max_iter``, and carries that gap.

    The loop runs every lambda not yet stopped as one row of stacked
    arrays.  Each row goes through the IEEE operations of a loop run for
    its lambda alone, in the same order: elementwise steps with a
    per-row threshold and weight, a matvec of its own, and reductions
    along its contiguous row.  So a fit does not depend on the grid it
    is solved with, and a one-lambda path (``fit_fista``) gives every
    path's bits.  A stopped row leaves the stacked arrays.
    """

    def __init__(
        self, dm: DesignMatrix, y, lams, max_iter: int = FISTA_MAX_ITER, tol: float = FISTA_TOL
    ):
        lams = [float(lam) for lam in lams]
        for lam in lams:
            _check_lam(lam)
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.dm = dm
        self.y = np.asarray(y, dtype=float)
        check_target(self.y)
        self.lams = list(dict.fromkeys(lams))  # distinct, in grid order
        self.max_iter = max_iter
        self.tol = tol
        self._fits = None  # lam -> (coefficients, iterations, termination, gap)

    def check(self, dm: DesignMatrix, y, max_iter: int, tol: float) -> "LassoPath":
        if (max_iter, tol) != (self.max_iter, self.tol):
            raise ValueError(
                f"LassoPath runs max_iter={self.max_iter}, tol={self.tol:g}; "
                f"asked for max_iter={max_iter}, tol={tol:g}"
            )
        if dm is not self.dm or not np.array_equal(self.y, y):
            raise ValueError("LassoPath belongs to another design or target")
        return self

    def model(self, lam: float) -> DenseModel:
        """The fit at ``lam``, a lambda of the grid; the first call solves them all."""
        if self._fits is None:
            self._fits = self._solve()
        fit = self._fits.get(float(lam))
        if fit is None:
            raise ValueError(f"lam {lam:g} is not on the path")
        coefficients, used, termination, gap = fit
        return DenseModel(coefficients.copy(), lam, used, termination, gap)

    def _solve(self) -> dict:
        dm, y, tol = self.dm, self.y, self.tol
        gram = dm.gram
        b = dm.columns.T @ y / dm.m
        yy = float(y @ y) / dm.m
        lip = lipschitz_estimate(dm)
        lams = self.lams
        rows = len(lams)
        # b and the thresholds lam / lip repeated on every row: a broadcast
        # operand costs more per call and gives the same elements
        b_rows = np.tile(b, (rows, 1))
        thresholds = np.repeat(np.array(lams)[:, None] / lip, dm.n, axis=1)

        # x over G'G x / m, the momentum over its product, and the next
        # iterate z over its product: one array each, two rows per lambda
        x_halves = _halves(np.zeros((2 * rows, dm.n)), rows)
        z_halves = _halves(np.empty((2 * rows, dm.n)), rows)
        mg, momentum, g_momentum, _ = _halves(np.zeros((2 * rows, dm.n)), rows)
        step, magnitude, scratch = (np.empty((rows, dm.n)) for _ in range(3))
        objectives, gaps = _objectives_and_gaps(
            x_halves[1], x_halves[2], np.zeros(rows), b_rows, yy, lams, scratch
        )
        fits = {}
        t = 1.0
        for used in range(1, self.max_iter + 1):
            xg = x_halves[0]
            zg, z, gz, z_rows = z_halves
            # z = soft-threshold of momentum - (g_momentum - b) / lip
            np.subtract(g_momentum, b_rows, out=step)
            step /= lip
            np.subtract(momentum, step, out=step)
            _soft_threshold_vec(step, thresholds, z, magnitude)
            for z_row, gz_row in z_rows:
                np.matmul(gram, z_row, out=gz_row)
            objectives_z, gaps_z = _objectives_and_gaps(
                z, gz, np.add.reduce(magnitude, axis=1), b_rows, yy, lams, scratch
            )
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            # momentum = x' + a (z - x') + c (x' - x) for the next iterate x',
            # which is z + c (z - x) when z is accepted and x + a (z - x) when not
            accepted = [oz <= o for oz, o in zip(objectives_z, objectives)]
            np.subtract(zg, xg, out=mg)
            if all(accepted):
                mg *= (t - 1.0) / t_next
                mg += zg
                # z's rows become the iterate's, and x's are free for the next z
                x_halves, z_halves = z_halves, x_halves
                objectives, gaps = objectives_z, gaps_z
            elif not any(accepted):
                mg *= t / t_next
                mg += xg
            else:
                weights = [(t - 1.0) / t_next if a else t / t_next for a in accepted]
                mg *= np.array(weights + weights)[:, None]
                taken = np.array(accepted + accepted)[:, None]
                np.add(mg, zg, out=mg, where=taken)
                np.add(mg, xg, out=mg, where=~taken)
                np.copyto(xg, zg, where=taken)
                for i, a in enumerate(accepted):
                    if a:
                        objectives[i], gaps[i] = objectives_z[i], gaps_z[i]
            t = t_next
            if used == self.max_iter:
                stopped = range(rows)
            else:
                stopped = [i for i, gap in enumerate(gaps) if gap <= tol]
            for i in stopped:
                termination = CONVERGED if gaps[i] <= tol else MAX_ITER
                fits[lams[i]] = (x_halves[1][i].copy(), used, termination, gaps[i])
            if len(stopped) == rows:
                break
            if stopped:
                keep = [i for i, gap in enumerate(gaps) if not gap <= tol]  # NaN runs on
                both = keep + [rows + i for i in keep]
                rows = len(keep)
                x_halves = _halves(x_halves[0][both], rows)
                z_halves = _halves(np.empty_like(x_halves[0]), rows)
                mg, momentum, g_momentum, _ = _halves(mg[both], rows)
                step, magnitude, scratch = step[:rows], magnitude[:rows], scratch[:rows]
                b_rows, thresholds = b_rows[:rows], thresholds[keep]
                lams = [lams[i] for i in keep]
                objectives = [objectives[i] for i in keep]
                gaps = [gaps[i] for i in keep]
        return fits


def fit_fista(
    dm: DesignMatrix,
    y,
    lam: float,
    max_iter: int = FISTA_MAX_ITER,
    tol: float = FISTA_TOL,
    path: LassoPath | None = None,
) -> DenseModel:
    """The lasso fit at ``lam``, read from ``path`` (see LassoPath).

    Without a path it solves a path of this one lambda, which gives the
    bits of every path holding it.  A path must belong to this design
    and target and run this max_iter and tol.
    """
    _check_lam(lam)
    if path is None:
        path = LassoPath(dm, y, [lam], max_iter, tol)
    return path.check(dm, y, max_iter, tol).model(lam)
