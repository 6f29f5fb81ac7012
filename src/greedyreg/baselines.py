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
from .linalg import cholesky_solve


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
    """Closed-form ridge solution via a Cholesky solve of (G'G/m + lam I)."""
    _check_lam(lam)
    y = np.asarray(y, dtype=float)
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
    resid = y - dm.columns @ coef
    return float(resid @ resid) / (2 * dm.m) + lam * float(np.sum(np.abs(coef)))


def _objective_and_gap(x, gx, l1, b, yy, lam, scratch):
    """Lasso objective of x and its relative duality gap, from gx = G'G x / m and l1 = ||x||_1.

    With b = G'y/m and yy = y'y/m, the mean squared residual is
    yy - 2 b'x + x'gx and G'(y - Gx)/m is b - gx.  The dual point is the
    residual rescaled so that ||G' theta||_inf <= m lam (Fercoq, Gramfort
    & Salmon 2015); the gap is primal minus dual over primal.
    ``scratch`` is an n-vector the computation may overwrite.
    """
    bx = float(b @ x)
    mean_sq_resid = yy - 2.0 * bx + float(x @ gx)
    primal = 0.5 * mean_sq_resid + lam * l1
    np.subtract(b, gx, out=scratch)
    top = float(np.abs(scratch, out=scratch).max())
    scale = min(1.0, lam / top) if top > 0 else 1.0
    dual = scale * (yy - bx) - 0.5 * scale * scale * mean_sq_resid
    return primal, (primal - dual) / primal if primal > 0 else 0.0


def fit_fista(
    dm: DesignMatrix, y, lam: float, max_iter: int = 10000, tol: float = 1e-6
) -> DenseModel:
    """Accelerated proximal-gradient lasso solve (monotone variant).

    Fixed step 1/L with L from lipschitz_estimate, soft-threshold by
    lam/L, and the usual momentum sequence; the accepted iterate only
    moves when the objective does not increase, which keeps the
    objective nonincreasing without changing the fixed point.  Every
    product runs on the n x n ``dm.gram``: one matvec per iteration,
    with the momentum's product taken by linearity.  Stops as
    ``converged`` once the relative duality gap of the accepted iterate
    is at most tol, else as ``max_iter``; the model carries that gap.
    The loop works in preallocated vectors.
    """
    _check_lam(lam)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    y = np.asarray(y, dtype=float)
    gram = dm.gram
    b = dm.columns.T @ y / dm.m
    yy = float(y @ y) / dm.m
    lip = lipschitz_estimate(dm)
    step_threshold = lam / lip

    n = dm.n
    x, gx, momentum, g_momentum = (np.zeros(n) for _ in range(4))
    z, gz, step, magnitude, scratch = (np.empty(n) for _ in range(5))
    obj, gap = _objective_and_gap(x, gx, 0.0, b, yy, lam, scratch)
    t = 1.0
    termination = MAX_ITER
    for used in range(1, max_iter + 1):
        # z = soft-threshold of momentum - (g_momentum - b) / lip
        np.subtract(g_momentum, b, out=step)
        step /= lip
        np.subtract(momentum, step, out=step)
        _soft_threshold_vec(step, step_threshold, z, magnitude)
        np.matmul(gram, z, out=gz)
        obj_z, gap_z = _objective_and_gap(z, gz, float(magnitude.sum()), b, yy, lam, scratch)
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        # momentum = x' + a (z - x') + c (x' - x) for the next iterate x',
        # which is z + c (z - x) when z is accepted and x + a (z - x) when not
        accepted = obj_z <= obj
        weight = (t - 1.0) / t_next if accepted else t / t_next
        np.subtract(z, x, out=momentum)
        momentum *= weight
        momentum += z if accepted else x
        np.subtract(gz, gx, out=g_momentum)
        g_momentum *= weight
        g_momentum += gz if accepted else gx
        if accepted:
            # z's vectors become the iterate's, and x's are free for the next z
            x, z, gx, gz = z, x, gz, gx
            obj, gap = obj_z, gap_z
        t = t_next
        if gap <= tol:
            termination = CONVERGED
            break
    return DenseModel(x, lam, used, termination, gap)
