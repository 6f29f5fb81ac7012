"""Dense regularized comparators: ridge least squares and L1 via FISTA.

Objectives use the empirical (1/m-weighted) data term so the
regularization weight is comparable across sample sizes:

    ridge:  (1/m) ||y - G a||^2 + lam ||a||_2^2
    lasso:  (1/2m) ||y - G a||^2 + lam ||a||_1

Coefficients are returned in the basis of the design columns as given.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import DesignMatrix


class FactorizationFailure(ArithmeticError):
    """The regularized normal-equations matrix was not positive definite."""


@dataclass(frozen=True, eq=False)
class DenseModel:
    """Coefficients over the whole dictionary plus the weight that produced them."""

    coefficients: np.ndarray
    lam: float
    iterations_used: int = 0

    def __post_init__(self):
        coefficients = np.asarray(self.coefficients, dtype=float)
        if not np.isfinite(coefficients).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coefficients)

    def sparsity(self, tol: float = 1e-8) -> int:
        return int(np.sum(np.abs(self.coefficients) > tol))


def fit_ridge(dm: DesignMatrix, y, lam: float) -> DenseModel:
    """Closed-form ridge solution via a Cholesky solve of (G'G/m + lam I)."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    y = np.asarray(y, dtype=float)
    g = dm.columns
    gram = (g.T @ g) / dm.m
    gram[np.diag_indices_from(gram)] += lam
    rhs = (g.T @ y) / dm.m
    try:
        coef = cho_solve(cho_factor(gram), rhs)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(str(exc)) from exc
    return DenseModel(coef, lam)


def _soft_threshold_vec(values, t):
    return np.sign(values) * np.maximum(np.abs(values) - t, 0.0)


def lipschitz_estimate(dm: DesignMatrix) -> float:
    """Largest eigenvalue of G'G/m by power iteration, inflated by 1.01.

    The inflation keeps the 1/L gradient step safely inside the stable
    region despite the iteration's finite tolerance.
    """
    g = dm.columns[:, dm.live]
    if g.shape[1] == 0:
        raise ValueError("no live columns")
    m = dm.m
    rng = np.random.default_rng(0)
    v = rng.standard_normal(g.shape[1])
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for _ in range(1000):
        w = g.T @ (g @ v) / m
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 1.01e-30
        v = w / lam
        if abs(lam - lam_prev) <= 1e-6 * lam:
            break
        lam_prev = lam
    return 1.01 * lam


def lasso_objective(dm: DesignMatrix, y, coef, lam: float) -> float:
    resid = y - dm.columns @ coef
    return float(resid @ resid) / (2 * dm.m) + lam * float(np.sum(np.abs(coef)))


def fit_fista(
    dm: DesignMatrix, y, lam: float, max_iter: int = 5000, tol: float = 1e-8
) -> DenseModel:
    """Accelerated proximal-gradient lasso solve (monotone variant).

    Fixed step 1/L with L from lipschitz_estimate, soft-threshold by
    lam/L, and the usual momentum sequence; the accepted iterate only
    moves when the objective does not increase, which keeps the
    objective nonincreasing without changing the fixed point.  Stops at
    max_iter or when the relative change of the proximal iterate falls
    below tol; non-convergence is visible as iterations_used == max_iter.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    y = np.asarray(y, dtype=float)
    g = dm.columns
    m = dm.m
    lip = lipschitz_estimate(dm)
    step_threshold = lam / lip

    x = np.zeros(dm.n)
    z_prev = x
    momentum = x
    obj = lasso_objective(dm, y, x, lam)
    t = 1.0
    used = 0
    for it in range(1, max_iter + 1):
        used = it
        grad = g.T @ (g @ momentum - y) / m
        z = _soft_threshold_vec(momentum - grad / lip, step_threshold)
        obj_z = lasso_objective(dm, y, z, lam)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        if obj_z <= obj:
            x_next = z
            obj = obj_z
        else:
            x_next = x
        momentum = x_next + (t / t_next) * (z - x_next) + ((t - 1.0) / t_next) * (x_next - x)
        change = np.linalg.norm(z - z_prev)
        x, z_prev, t = x_next, z, t_next
        if change <= tol * max(1.0, np.linalg.norm(z)):
            break
    return DenseModel(x, lam, used)
